package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strconv"

	wl "tierbase/internal/workload"
)

// Every value the generator writes names its key and a generation, spliced
// into two digit fields of a template drawn from a pool built at setup
// (workload.Dataset.Record is too slow to call per request). The fields
// keep the template's token shape, so a pattern compressor trained on the
// dataset still matches the values. A reply is checked by parsing the two
// fields and rebuilding the value byte for byte.

// valueSource builds and checks values of one shape.
type valueSource struct {
	templates [][]byte
	keyPre    []byte // bytes before the key digits
	keyEnd    byte   // byte after the key digits
	genPre    []byte // bytes before the generation digits (after the key field)
	genEnd    byte   // byte after the generation digits
}

// Reply-check failures.
var (
	errMiss     = errors.New("prefilled key missing")
	errOtherKey = errors.New("value belongs to another key")
	errCorrupt  = errors.New("value corrupted")
	errFuture   = errors.New("generation never written")
	errStale    = errors.New("generation older than the last acked write")
)

const poolSize = 512

// newValueSource builds the template pool for a value shape: "kv1"
// (JSON-like service records, about 180 B) or "kv2" (pipe-delimited
// ledger rows, about 150 B).
// The seed picks which dataset records fill the pool.
func newValueSource(kind string, seed int64) (*valueSource, error) {
	rng := rand.New(rand.NewSource(seed))
	offset := rng.Int63n(1 << 30)
	vs := &valueSource{}
	switch kind {
	case "kv1":
		vs.keyPre, vs.keyEnd = []byte(`"user_id":"`), '"'
		vs.genPre, vs.genEnd = []byte(`"balance_cents":`), '}'
	case "kv2":
		vs.keyPre, vs.keyEnd = []byte("out_biz_no_"), '|'
		vs.genPre, vs.genEnd = []byte("settle_batch_"), '|'
	default:
		return nil, fmt.Errorf("unknown value source %q", kind)
	}
	for i := 0; i < poolSize; i++ {
		rec := wl.DatasetByName(kind).Record(offset + int64(i))
		if _, _, _, _, ok := vs.fields(rec); !ok {
			return nil, fmt.Errorf("%s template %d has no key/generation fields: %q", kind, i, rec)
		}
		vs.templates = append(vs.templates, rec)
	}
	return vs, nil
}

// fields locates the key digits rec[ka:kb] and generation digits rec[ga:gb].
func (vs *valueSource) fields(rec []byte) (ka, kb, ga, gb int, ok bool) {
	i := bytes.Index(rec, vs.keyPre)
	if i < 0 {
		return 0, 0, 0, 0, false
	}
	ka = i + len(vs.keyPre)
	j := bytes.IndexByte(rec[ka:], vs.keyEnd)
	if j < 0 {
		return 0, 0, 0, 0, false
	}
	kb = ka + j
	i = bytes.Index(rec[kb:], vs.genPre)
	if i < 0 {
		return 0, 0, 0, 0, false
	}
	ga = kb + i + len(vs.genPre)
	j = bytes.IndexByte(rec[ga:], vs.genEnd)
	if j < 0 {
		return 0, 0, 0, 0, false
	}
	return ka, kb, ga, ga + j, true
}

// value returns the value generation gen of key writes.
func (vs *valueSource) value(key int, gen uint32) []byte {
	t := vs.templates[(uint64(key)*2654435761+uint64(gen)*40503)%uint64(len(vs.templates))]
	ka, kb, ga, gb, _ := vs.fields(t)
	out := make([]byte, 0, len(t)+16)
	out = append(out, t[:ka]...)
	out = strconv.AppendInt(out, int64(key), 10)
	out = append(out, t[kb:ga]...)
	out = strconv.AppendUint(out, uint64(gen), 10)
	return append(out, t[gb:]...)
}

// parse reads the key and generation a value claims.
func (vs *valueSource) parse(v []byte) (key int, gen uint32, ok bool) {
	ka, kb, ga, gb, ok := vs.fields(v)
	if !ok {
		return 0, 0, false
	}
	k, err1 := strconv.Atoi(string(v[ka:kb]))
	g, err2 := strconv.ParseUint(string(v[ga:gb]), 10, 32)
	if err1 != nil || err2 != nil {
		return 0, 0, false
	}
	return k, uint32(g), true
}

// check verifies that v is a value the generator wrote for key, with a
// generation in [minGen, maxGen].
func (vs *valueSource) check(key int, v []byte, minGen, maxGen uint32) error {
	k, g, ok := vs.parse(v)
	switch {
	case !ok:
		return errCorrupt
	case k != key:
		return errOtherKey
	case g > maxGen:
		return errFuture
	case !bytes.Equal(v, vs.value(k, g)):
		return errCorrupt
	case g < minGen:
		return errStale
	}
	return nil
}
