package main

import (
	"bufio"
	"fmt"
	"io/fs"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"tierbase/internal/client"
)

// proc is one child process of the benchmark; its output goes to a log
// file in the run directory.
type proc struct {
	name string
	cmd  *exec.Cmd
	log  string
	done chan struct{}
	err  error
}

func startProc(bin, logDir, name string, args ...string) (*proc, error) {
	logPath := filepath.Join(logDir, name+".log")
	f, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = f, f
	// A benchmark killed before its cleanup must not leave servers behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		f.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, log: logPath, done: make(chan struct{})}
	go func() {
		p.err = cmd.Wait()
		f.Close()
		close(p.done)
	}()
	return p, nil
}

func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// stop sends sig and waits for the exit; past bound it kills the process.
func (p *proc) stop(sig syscall.Signal, bound time.Duration) error {
	if p.exited() {
		return nil
	}
	_ = p.cmd.Process.Signal(sig) // an already-exited process is reaped below
	select {
	case <-p.done:
		if sig == syscall.SIGTERM && p.err != nil {
			return fmt.Errorf("%s: exit after SIGTERM: %v", p.name, p.err)
		}
		return nil
	case <-time.After(bound):
		_ = p.cmd.Process.Kill()
		<-p.done
		return fmt.Errorf("%s: no exit %v after %v; killed", p.name, bound, sig)
	}
}

// peakRSS is a process's high-water resident set (VmHWM), in bytes.
func peakRSS(pid int) (int64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			return kb << 10, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// cpuStat is the machine's CPU time from the first line of /proc/stat,
// in clock ticks: all of it and the part the host stole from the VM.
type cpuStat struct{ total, steal int64 }

// readCPUStat reads it; zero when /proc/stat cannot be read.
func readCPUStat() cpuStat {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	var c cpuStat
	for i := 1; i < len(f) && i <= 8; i++ {
		v, _ := strconv.ParseInt(f[i], 10, 64)
		c.total += v
		if i == 8 {
			c.steal = v
		}
	}
	return c
}

// stealSince is the share of the CPU time since c0 that the host stole.
func (c cpuStat) stealSince(c0 cpuStat) float64 {
	return ratio(float64(c.steal-c0.steal), float64(c.total-c0.total))
}

func (p *proc) tail() string {
	b, _ := os.ReadFile(p.log)
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}

func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// waitUntil polls cond until it holds, p exits, or bound passes.
func waitUntil(p *proc, bound time.Duration, what string, cond func() bool) error {
	deadline := time.Now().Add(bound)
	for !cond() {
		if p != nil && p.exited() {
			return fmt.Errorf("%s exited before %s:\n%s", p.name, what, p.tail())
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("timeout waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nil
}

// ping reports whether a RESP server answers at addr.
func ping(addr string) bool {
	c, err := client.Dial(addr)
	if err != nil {
		return false
	}
	defer c.Close()
	return c.Ping() == nil
}

// infoField reads one field of INFO section from the server at addr.
func infoField(addr, section, field string) string {
	c, err := client.Dial(addr)
	if err != nil {
		return ""
	}
	defer c.Close()
	return infoValue(c, section, field)
}

// infoValue reads one field of INFO section over c; "" when absent.
func infoValue(c *client.Client, section, field string) string {
	v, err := c.Do("INFO", section)
	s, _ := v.(string)
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(s, "\r\n") {
		if val, ok := strings.CutPrefix(line, field+":"); ok {
			return val
		}
	}
	return ""
}

// settle waits until the storage tier at addr is quiet: no sealed
// memtables waiting and no flush or compaction finishing for 300 ms (the
// prefill leaves a compaction backlog that would otherwise run inside the
// timed phases). It returns after bound regardless.
func settle(addr string, bound time.Duration) {
	c, err := client.Dial(addr)
	if err != nil {
		return
	}
	defer c.Close()
	deadline := time.Now().Add(bound)
	last, quiet := "", 0
	for quiet < 3 && time.Now().Before(deadline) {
		v, _ := c.Do("INFO", "storage")
		info, _ := v.(string)
		var sig []string
		busy := false
		for _, line := range strings.Split(info, "\r\n") {
			name, val, _ := strings.Cut(line, ":")
			switch {
			case strings.HasSuffix(name, "_immutables"):
				busy = busy || val != "0"
			case strings.HasSuffix(name, "_flushes"), strings.HasSuffix(name, "_compactions"):
				sig = append(sig, val)
			}
		}
		if cur := strings.Join(sig, ","); cur == last && !busy {
			quiet++
		} else {
			last, quiet = cur, 0
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// topology is what a deployment needs from its nodes, whether they are
// child processes or servers inside the benchmark process.
type topology struct {
	addr  string // data server (the master when replicated)
	coord string // coordinator, when replicated
	dir   string // storage directory, when tiered
}

// dial opens the generator's two connections per data server.
func (t topology) dial() ([]kv, error) {
	conns := make([]kv, 0, 2)
	for i := 0; i < 2; i++ {
		var c kv
		var err error
		if t.coord != "" {
			c, err = client.NewCluster(t.coord)
		} else {
			c, err = client.Dial(t.addr)
		}
		if err != nil {
			closeAll(conns)
			return nil, err
		}
		conns = append(conns, c)
	}
	return conns, nil
}

func closeAll(conns []kv) {
	for _, c := range conns {
		c.Close()
	}
}

// procDeployment is a workload's servers as child processes built from
// the tree.
type procDeployment struct {
	topology
	procs  []*proc // started order; stopped in reverse
	master *proc
}

// deployProcs starts the workload's processes and waits until they serve.
// A replicated deployment is ready once the replica's link is up and the
// coordinator routes to the master.
func deployProcs(w *workload, binDir, runDir, dataDir string) (*procDeployment, error) {
	server := filepath.Join(binDir, "tierbase-server")
	d := &procDeployment{}
	fail := func(err error) (*procDeployment, error) {
		d.stop(syscall.SIGKILL)
		return nil, err
	}
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	d.addr = addr
	args := append([]string{"-addr", addr}, w.server.flags()...)
	if w.server.tiered() {
		d.dir = dataDir
		args = append(args, "-dir", dataDir)
	}
	if !w.replicated {
		p, err := startProc(server, runDir, "server", args...)
		if err != nil {
			return nil, err
		}
		d.procs, d.master = []*proc{p}, p
		if err := waitUntil(p, 20*time.Second, "server ready", func() bool { return ping(addr) }); err != nil {
			return fail(err)
		}
		return d, nil
	}
	if d.coord, err = freeAddr(); err != nil {
		return nil, err
	}
	replicaAddr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	coord, err := startProc(filepath.Join(binDir, "tierbase-coordinator"), runDir, "coordinator", "-addr", d.coord)
	if err != nil {
		return nil, err
	}
	d.procs = append(d.procs, coord)
	// Each node starts once the one it dials serves: a node that dials
	// too early retries after a backoff, which set-up time would count.
	if err := waitUntil(coord, 20*time.Second, "coordinator ready", func() bool { return ping(d.coord) }); err != nil {
		return fail(err)
	}
	master, err := startProc(server, runDir, "master", append(args, "-node-id", "m1", "-coordinator", d.coord, "-semisync-acks", "1")...)
	if err != nil {
		return fail(err)
	}
	d.procs, d.master = append(d.procs, master), master
	if err := waitUntil(master, 20*time.Second, "master ready", func() bool { return ping(addr) }); err != nil {
		return fail(err)
	}
	replicaArgs := append([]string{"-addr", replicaAddr}, w.server.flags()...)
	replica, err := startProc(server, runDir, "replica", append(replicaArgs, "-node-id", "r1", "-replicaof", addr, "-coordinator", d.coord)...)
	if err != nil {
		return fail(err)
	}
	d.procs = append(d.procs, replica)
	if err := waitUntil(replica, 20*time.Second, "replica link up", func() bool {
		return infoField(replicaAddr, "replication", "master_link") == "up"
	}); err != nil {
		return fail(err)
	}
	if err := waitUntil(master, 20*time.Second, "master routed", func() bool {
		c, err := client.Dial(d.coord)
		if err != nil {
			return false
		}
		defer c.Close()
		v, _ := c.Do("CLUSTER", "TABLE")
		s, _ := v.(string)
		return strings.Contains(s, addr)
	}); err != nil {
		return fail(err)
	}
	return d, nil
}

// stop signals every process, newest first, and waits for each. SIGTERM
// is the server's graceful drain; an unclean exit is an error.
func (d *procDeployment) stop(sig syscall.Signal) error {
	var first error
	for i := len(d.procs) - 1; i >= 0; i-- {
		if err := d.procs[i].stop(sig, 20*time.Second); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.Type().IsRegular() {
			info, err := e.Info()
			if err != nil {
				return err
			}
			n += info.Size()
		}
		return nil
	})
	return n, err
}
