package main

// Fleet lifecycle: real qserve processes, started fresh for every workload,
// each in its own process group, found by the address it prints, stopped with
// SIGTERM and a bounded wait, SIGKILLed after, and never orphaned — every
// live process is in a registry that exit paths, signals and panics sweep.

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"
)

func init() {
	// Children carry Pdeathsig, which the kernel ties to the thread that
	// forked them. Fleets are started from the main goroutine only; pinning
	// it to the main thread makes "parent died" mean this process died.
	runtime.LockOSThread()
}

const (
	readyTimeout = 20 * time.Second
	drainTimeout = 5 * time.Second
)

// proc is one qserve process.
type proc struct {
	name string
	cmd  *exec.Cmd
	addr string        // the address it printed
	done chan struct{} // closed once Wait returned
}

func (p *proc) pid() int { return p.cmd.Process.Pid }

// signal sends sig to the process's whole group.
func (p *proc) signal(sig syscall.Signal) {
	syscall.Kill(-p.pid(), sig) //nolint:errcheck // already gone is fine
}

// live is the registry of processes not yet reaped.
var live struct {
	sync.Mutex
	procs map[*proc]bool
}

// killAll SIGKILLs every registered process group and waits for each; the
// last resort of error exits, panics and Ctrl-C.
func killAll() {
	live.Lock()
	procs := make([]*proc, 0, len(live.procs))
	for p := range live.procs {
		procs = append(procs, p)
	}
	live.Unlock()
	for _, p := range procs {
		p.signal(syscall.SIGKILL)
	}
	for _, p := range procs {
		<-p.done
	}
}

// trapSignals turns SIGINT/SIGTERM into a clean sweep and a non-zero exit.
func trapSignals() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ch
		killAll()
		os.Exit(130)
	}()
}

// startProc starts one qserve and waits until it prints marker followed by
// its address. stdout and stderr go to logPath.
func startProc(bin, name, logPath, marker string, args ...string) (*proc, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stderr = logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, done: make(chan struct{})}
	live.Lock()
	if live.procs == nil {
		live.procs = map[*proc]bool{}
	}
	live.procs[p] = true
	live.Unlock()

	addrCh := make(chan string, 1) // one send: the first marker line
	go func() {
		sc := bufio.NewScanner(stdout)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logf, line)
			if rest, ok := strings.CutPrefix(line, marker); ok && !sent {
				addrCh <- strings.TrimSpace(rest)
				sent = true
			}
		}
		io.Copy(io.Discard, stdout) //nolint:errcheck // drain an over-long line
		cmd.Wait()                  //nolint:errcheck // exit status is in the log
		logf.Close()
		live.Lock()
		delete(live.procs, p)
		live.Unlock()
		close(p.done)
	}()
	select {
	case p.addr = <-addrCh:
		return p, nil
	case <-p.done:
		return nil, fmt.Errorf("%s exited before listening; see %s", name, logPath)
	case <-time.After(readyTimeout):
		p.signal(syscall.SIGKILL)
		<-p.done
		return nil, fmt.Errorf("%s did not listen within %v; see %s", name, readyTimeout, logPath)
	}
}

// stop drains the process: SIGTERM, a bounded wait, SIGKILL after.
func (p *proc) stop() {
	p.signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(drainTimeout):
		p.signal(syscall.SIGKILL)
		<-p.done
	}
}

// fleetKind is a server topology.
type fleetKind int

const (
	fleetLocal  fleetKind = iota // 1 x qserve -role local
	fleetShard3                  // 3 x -role shard + 1 x -role frontend
	fleetLive                    // 1 x qserve -live -ingest-workers 1
)

// fleet is the set of processes serving one workload, with the HTTP client
// the whole harness shares: two connections, the box's nproc.
type fleet struct {
	procs  []*proc
	base   string // http://host:port of the query surface
	client *http.Client
	// explain makes every call through the load loops ask for the explain
	// profile and keep its answer: the traced pass's replay.
	explain bool
}

const maxConns = 2

func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     maxConns,
			MaxIdleConnsPerHost: maxConns,
			IdleConnTimeout:     time.Minute,
			DisableCompression:  true,
		},
		Timeout: 60 * time.Second,
	}
}

// startFleet starts the topology over dataDir with qserve's default flags
// and returns once every /readyz is green. tag names the log files.
func startFleet(p paths, kind fleetKind, dataDir, tag string) (*fleet, error) {
	logDir := filepath.Join(p.Results, "logs")
	if err := os.MkdirAll(logDir, 0o755); err != nil {
		return nil, err
	}
	f := &fleet{client: newClient()}
	bin := p.bin("qserve")
	data := datasetName + "=" + dataDir
	start := func(name, marker string, args ...string) (*proc, error) {
		pr, err := startProc(bin, name, filepath.Join(logDir, tag+"-"+name+".log"), marker, args...)
		if err != nil {
			f.stop()
			return nil, err
		}
		f.procs = append(f.procs, pr)
		return pr, nil
	}
	const httpMarker, rpcMarker = "qserve: listening on ", "qserve: shard rpc on "
	var front *proc
	var err error
	switch kind {
	case fleetLocal:
		front, err = start("local", httpMarker, "-data", data, "-addr", "127.0.0.1:0")
	case fleetLive:
		front, err = start("live", httpMarker, "-data", data, "-addr", "127.0.0.1:0",
			"-live", "-ingest-workers", "1")
	case fleetShard3:
		var addrs []string
		for i := 0; i < 3; i++ {
			var sh *proc
			if sh, err = start(fmt.Sprintf("shard%d", i), rpcMarker,
				"-role", "shard", "-data", data, "-rpc-addr", "127.0.0.1:0"); err != nil {
				return nil, err
			}
			addrs = append(addrs, sh.addr)
		}
		front, err = start("frontend", httpMarker, "-role", "frontend", "-data", data,
			"-addr", "127.0.0.1:0", "-shards", strings.Join(addrs, ","))
	}
	if err != nil {
		return nil, err
	}
	f.base = "http://" + front.addr
	if err := f.waitReady(); err != nil {
		f.stop()
		return nil, err
	}
	return f, nil
}

// waitReady polls /readyz of the HTTP process; shard workers have no HTTP
// surface and are ready once they printed their RPC address.
func (f *fleet) waitReady() error {
	deadline := time.Now().Add(readyTimeout)
	for {
		resp, err := f.client.Get(f.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // status is the answer
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("fleet not ready within %v (last error: %v)", readyTimeout, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop drains every process, frontend first so no scatter is in flight when
// its shards go.
func (f *fleet) stop() {
	for i := len(f.procs) - 1; i >= 0; i-- {
		f.procs[i].stop()
	}
	f.procs = nil
	f.client.CloseIdleConnections()
}

// kill9 ends every process without warning: the crash of the durability
// check.
func (f *fleet) kill9() {
	for _, p := range f.procs {
		p.signal(syscall.SIGKILL)
	}
	for _, p := range f.procs {
		<-p.done
	}
	f.procs = nil
	f.client.CloseIdleConnections()
}

// sample sums CPU time and peak RSS over the fleet's processes.
func (f *fleet) sample() (procSample, error) {
	var total procSample
	for _, p := range f.procs {
		s, err := readProc(p.pid())
		if err != nil {
			return procSample{}, fmt.Errorf("%s: %w", p.name, err)
		}
		total.CPU += s.CPU
		total.HWMKB += s.HWMKB
	}
	return total, nil
}
