package main

import (
	"fmt"
	"strconv"
)

// serverSpec is one tierbase-server configuration. The untraced run passes
// it as flags; the traced run builds the same server.Config from it
// in-process (see traced.go).
type serverSpec struct {
	shards      int
	policy      string // cache-only | write-through | write-back
	compression string // "" | pbc
	trainOn     string
	cacheBytes  int64 // per shard; 0 = unbounded
}

func (s serverSpec) flags() []string {
	f := []string{"-shards", strconv.Itoa(s.shards), "-policy", s.policy}
	if s.compression != "" {
		f = append(f, "-compression", s.compression, "-train-on", s.trainOn)
	}
	if s.cacheBytes > 0 {
		f = append(f, "-cache-bytes", strconv.FormatInt(s.cacheBytes, 10))
	}
	return f
}

func (s serverSpec) tiered() bool { return s.policy != "cache-only" }

// workload is one traffic mix against one deployment. README.md records
// every field of every workload and why it exists.
type workload struct {
	name       string
	server     serverSpec
	replicated bool // coordinator + semi-sync master + one replica, via client.NewCluster
	keys       int
	values     string // value source, see newValueSource
	theta      float64
	getFrac    float64
	nominal    float64 // ops/s at which latency is reported
}

var workloads = []*workload{
	{
		name:    "hot-read",
		server:  serverSpec{shards: 2, policy: "cache-only"},
		keys:    100_000,
		values:  "kv2",
		theta:   0.99,
		getFrac: 0.95,
		nominal: 20_000,
	},
	{
		name:    "tiered-read",
		server:  serverSpec{shards: 2, policy: "write-through", compression: "pbc", trainOn: "kv1", cacheBytes: 2 << 20},
		keys:    240_000,
		values:  "kv1",
		theta:   0.9,
		getFrac: 0.90,
		nominal: 8_000,
	},
	{
		name:       "replicated-write",
		server:     serverSpec{shards: 1, policy: "cache-only"},
		replicated: true,
		keys:       50_000,
		values:     "kv2",
		theta:      0.99,
		getFrac:    0.50,
		nominal:    10_000,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}
