package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"ovm/internal/datasets"
	"ovm/internal/dynamic"
	"ovm/internal/iofault"
	"ovm/internal/persist"
	"ovm/internal/serialize"
	"ovm/internal/service"
)

// A backend builds index files and starts servers on them. The benchmark
// proper uses procBackend (a real ovmd child per server); the smoke test
// and the traced replay use inprocBackend, which wires the same service,
// WAL and persistence hooks inside this process.
type backend interface {
	BuildIndex(w workload, path string) error
	Start(indexPath string, cache int) (server, error)
}

type server interface {
	URL() string
	// Usage reports the serving process's peak resident set in MB and its
	// cumulative user+system CPU in seconds.
	Usage() (rssPeakMB, cpuSeconds float64, err error)
	// Stop shuts the server down gracefully and waits until it has ended.
	Stop() error
}

// ---- child-process backend ----

type procBackend struct {
	bin    string // built ovmd
	logDir string // daemon stderr goes to <logDir>/ovmd.log
}

// children holds the daemons that are running, so that a benchmark told
// to stop (SIGINT, SIGTERM) can take them with it.
var children struct {
	sync.Mutex
	running map[*daemon]bool
}

// killChildren kills every running daemon and waits until each has ended.
func killChildren() {
	children.Lock()
	defer children.Unlock()
	for d := range children.running {
		_ = d.cmd.Process.Kill()
		_ = d.cmd.Wait()
	}
}

// buildDaemon compiles cmd/ovmd into dir. It runs from the repository
// root, which is where the benchmark is started from.
func buildDaemon(dir string) (string, error) {
	bin := filepath.Join(dir, "ovmd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/ovmd")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/ovmd: %v\n%s", err, out)
	}
	return bin, nil
}

func (b procBackend) BuildIndex(w workload, path string) error {
	cmd := exec.Command(b.bin, "-build-index",
		"-dataset", datasetName, "-n", strconv.Itoa(w.N), "-seed", strconv.Itoa(indexSeed),
		"-theta", strconv.Itoa(w.Theta), "-t", strconv.Itoa(horizon), "-target", strconv.Itoa(target),
		"-walks="+strconv.FormatBool(w.Walks), "-out", path)
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("ovmd -build-index: %v\n%s", err, out)
	}
	return nil
}

type daemon struct {
	cmd *exec.Cmd
	url string
	log *os.File
}

// freePort asks the kernel for an unused loopback port. The listener is
// closed before the daemon binds it; nothing else on a benchmark box races
// for it in between.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

func (b procBackend) Start(indexPath string, cache int) (server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(filepath.Join(b.logDir, "ovmd.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	args := []string{"-listen", addr, "-index", indexPath}
	if cache != 0 {
		args = append(args, "-cache", strconv.Itoa(cache))
	}
	cmd := exec.Command(b.bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		_ = logf.Close()
		return nil, err
	}
	d := &daemon{cmd: cmd, url: "http://" + addr, log: logf}
	children.Lock()
	if children.running == nil {
		children.running = make(map[*daemon]bool)
	}
	children.running[d] = true
	children.Unlock()
	return d, nil
}

func (d *daemon) URL() string { return d.url }

func (d *daemon) Usage() (float64, float64, error) {
	return procUsage(strconv.Itoa(d.cmd.Process.Pid))
}

// procUsage reads VmHWM and utime+stime of a process from /proc.
func procUsage(pid string) (rssPeakMB, cpuSeconds float64, err error) {
	status, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, perr := strconv.ParseFloat(f[1], 64)
			if perr != nil {
				return 0, 0, perr
			}
			rssPeakMB = kb / 1024
		}
	}
	stat, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return 0, 0, err
	}
	// The command name is parenthesised and may hold spaces; fields are
	// counted from the closing parenthesis. utime and stime are fields 14
	// and 15 of the whole line, in clock ticks (100 per second on Linux).
	rest := string(stat)[strings.LastIndexByte(string(stat), ')')+1:]
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, 0, fmt.Errorf("short /proc/%s/stat", pid)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, 0, fmt.Errorf("bad /proc/%s/stat times", pid)
	}
	return rssPeakMB, (utime + stime) / 100, nil
}

func (d *daemon) Stop() error {
	children.Lock()
	running := children.running[d]
	delete(children.running, d)
	children.Unlock()
	if !running {
		return nil // already stopped
	}
	defer d.log.Close()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return err
	}
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(30 * time.Second):
		_ = d.cmd.Process.Kill()
		<-done
		return errors.New("ovmd did not stop within 30s of SIGTERM; killed")
	}
}

// ---- in-process backend ----

type inprocBackend struct{}

// buildIndexInProcess is ovmd -build-index as library calls; the traced
// replay times its three steps separately.
func buildIndexInProcess(w workload, path string) (synth, build, write time.Duration, err error) {
	t0 := time.Now()
	d, err := datasets.ByName(datasetName, datasets.Options{N: w.N, Mu: 10, Seed: indexSeed})
	if err != nil {
		return 0, 0, 0, err
	}
	t1 := time.Now()
	idx, err := service.BuildIndex(d.Sys, service.BuildOptions{
		Target: target, Horizon: horizon, Seed: indexSeed,
		SketchTheta: w.Theta, IncludeWalks: w.Walks,
	})
	if err != nil {
		return 0, 0, 0, err
	}
	t2 := time.Now()
	f, err := os.Create(path)
	if err != nil {
		return 0, 0, 0, err
	}
	if err := serialize.WriteIndexV3(f, idx, serialize.V3Options{}); err != nil {
		_ = f.Close()
		return 0, 0, 0, err
	}
	if err := f.Close(); err != nil {
		return 0, 0, 0, err
	}
	return t1.Sub(t0), t2.Sub(t1), time.Since(t2), nil
}

func (inprocBackend) BuildIndex(w workload, path string) error {
	_, _, _, err := buildIndexInProcess(w, path)
	return err
}

// serving is ovmd's serve() wiring without the process: a mapped index, the
// WAL sidecar in front of it, and the service with both durability hooks.
// It omits ovmd's log compaction; the logs it sees stay far below the
// daemon's 1024-batch trigger.
type serving struct {
	svc *service.Service
	mi  *serialize.MappedIndex

	openMapped, addIndex time.Duration // how long the two load steps took
}

func openServing(indexPath string, cache int) (*serving, error) {
	t0 := time.Now()
	mi, err := serialize.OpenMapped(indexPath)
	if err != nil {
		return nil, err
	}
	openMapped := time.Since(t0)
	idx := mi.Index
	wal, _, err := persist.OpenWAL(iofault.OS, indexPath+".wal")
	if err != nil {
		_ = mi.Close()
		return nil, err
	}
	served := idx.BaseEpoch + int64(len(idx.Updates))
	if err := wal.Prune(served); err != nil {
		_ = mi.Close()
		return nil, err
	}
	sv := &serving{mi: mi, openMapped: openMapped}
	sv.svc = service.New(service.Config{
		CacheSize:    cache,
		AsyncUpdates: true,
		OnEnqueue: func(_ string, batch dynamic.Batch, epoch int64) error {
			return wal.Append(persist.WALEntry{Epoch: epoch, Batch: batch})
		},
		OnUpdate: func(_ string, batches []dynamic.Batch, epoch int64) error {
			n0 := len(idx.Updates)
			idx.Updates = append(idx.Updates, batches...)
			if err := persist.WriteIndexAtomic(iofault.OS, indexPath, idx); err != nil {
				idx.Updates = idx.Updates[:n0]
				return err
			}
			return wal.Prune(epoch)
		},
	})
	t0 = time.Now()
	if err := sv.svc.AddIndex(servedDataset, idx); err != nil {
		sv.Close()
		return nil, err
	}
	sv.addIndex = time.Since(t0)
	if rem := wal.Pending(); len(rem) > 0 {
		queued := make([]dynamic.Batch, len(rem))
		for i, e := range rem {
			queued[i] = e.Batch
		}
		if serr := sv.svc.SeedQueued(servedDataset, queued, rem[0].Epoch); serr != nil {
			sv.Close()
			return nil, serr
		}
	}
	return sv, nil
}

func (sv *serving) Close() {
	sv.svc.Close()
	_ = sv.mi.Close()
}

type inprocServer struct {
	sv *serving
	ts *httptest.Server
}

func (inprocBackend) Start(indexPath string, cache int) (server, error) {
	sv, err := openServing(indexPath, cache)
	if err != nil {
		return nil, err
	}
	return &inprocServer{sv: sv, ts: httptest.NewServer(sv.svc.Handler())}, nil
}

func (s *inprocServer) URL() string { return s.ts.URL }

// Usage reports this process: in-process serving has no process of its own.
func (s *inprocServer) Usage() (float64, float64, error) { return procUsage("self") }

func (s *inprocServer) Stop() error {
	s.ts.Close()
	s.sv.Close()
	return nil
}

// newClient returns an HTTP client that holds exactly one connection, so
// "one connection per stream" is a property of the transport and not of
// how the generator happens to be scheduled.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 120 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			IdleConnTimeout:     time.Minute,
		},
	}
}
