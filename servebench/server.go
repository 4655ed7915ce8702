package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"
)

// env is one `anchor serve` child process listening on loopback, and the
// HTTP client the benchmark talks to it with.
type env struct {
	hc   *http.Client
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	dir  string // the server's -cache-dir
	done chan struct{}
	ref  *refs // the run's pinned-digest checks, shared by its servers
}

// newHTTPClient keeps up to conns connections alive and asks for no
// compression.
func newHTTPClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		IdleConnTimeout:     time.Minute,
		DisableCompression:  true,
	}}
}

// startServer launches `anchor serve` over cacheDir and waits until
// /v1/livez answers. A port taken between probing and binding makes the
// child exit; the launch is then retried on a fresh port.
func startServer(ctx context.Context, hc *http.Client, bin, config, cacheDir, logPath string) (*env, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		port, err := freePort()
		if err != nil {
			return nil, err
		}
		e, err := launch(hc, bin, config, cacheDir, logPath, port)
		if err != nil {
			return nil, err
		}
		if lastErr = e.waitLive(ctx); lastErr == nil {
			return e, nil
		}
		e.stop()
	}
	return nil, fmt.Errorf("anchor serve never became live: %w (see %s)", lastErr, logPath)
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("probe free port: %w", err)
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

func launch(hc *http.Client, bin, config, cacheDir, logPath string, port int) (*env, error) {
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(bin, "serve", "-addr", addr, "-config", config, "-cache-dir", cacheDir)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.Env = append(os.Environ(), "TMPDIR="+filepath.Dir(cacheDir))
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start anchor serve: %w", err)
	}
	e := &env{hc: hc, cmd: cmd, base: "http://" + addr, dir: cacheDir, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // exit status is irrelevant once we stop it
		close(e.done)
	}()
	return e, nil
}

func (e *env) waitLive(ctx context.Context) error {
	livez := &request{method: http.MethodGet, path: "/v1/livez"}
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-e.done:
			return errors.New("process exited")
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		if code, _, err := e.do(ctx, livez); err == nil && code == http.StatusOK {
			return nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return errors.New("timed out")
}

// stop shuts the process down gracefully (SIGTERM drains in-flight
// requests) and kills it if it has not exited within ten seconds. It
// returns once the process is gone.
func (e *env) stop() {
	_ = e.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-e.done:
	case <-time.After(10 * time.Second):
		_ = e.cmd.Process.Kill()
		<-e.done
	}
	e.hc.CloseIdleConnections()
}

// dirBytes totals the regular files under the server's cache directory.
func (e *env) dirBytes() int64 {
	var n int64
	_ = filepath.WalkDir(e.dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// do sends r and reads its whole answer.
func (e *env) do(ctx context.Context, r *request) (int, []byte, error) {
	code, body, _, err := e.timed(ctx, r, false)
	return code, body, err
}

// call sends one request that must succeed and decodes its JSON answer
// into out (nil to discard).
func (e *env) call(ctx context.Context, method, path string, in, out any) error {
	r := &request{method: method, path: path}
	if in != nil {
		var err error
		if r.body, err = json.Marshal(in); err != nil {
			return err
		}
	}
	code, body, err := e.do(ctx, r)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	if code != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %s", method, path, code, body)
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(body, out); err != nil {
		return fmt.Errorf("%s %s: decode: %w", method, path, err)
	}
	return nil
}

// counters are the /v1/healthz traffic counters and the resident-bytes
// gauge the per-layer metrics read. Fields missing from a server's healthz
// decode as zero.
type counters struct {
	Store struct {
		MemHits  int64 `json:"mem_hits"`
		DiskHits int64 `json:"disk_hits"`
		Computes int64 `json:"computes"`
	} `json:"store"`
	Query struct {
		SnapshotHits   int64 `json:"snapshot_hits"`
		SnapshotLoads  int64 `json:"snapshot_loads"`
		Batches        int64 `json:"batches"`
		BatchedQueries int64 `json:"batched_queries"`
		ResidentBytes  int64 `json:"resident_bytes"`
	} `json:"query"`
}

// minus returns the counter deltas c - b; the gauge keeps c's value.
func (c counters) minus(b counters) counters {
	c.Store.MemHits -= b.Store.MemHits
	c.Store.DiskHits -= b.Store.DiskHits
	c.Store.Computes -= b.Store.Computes
	c.Query.SnapshotHits -= b.Query.SnapshotHits
	c.Query.SnapshotLoads -= b.Query.SnapshotLoads
	c.Query.Batches -= b.Query.Batches
	c.Query.BatchedQueries -= b.Query.BatchedQueries
	return c
}

func (e *env) counters(ctx context.Context) (counters, error) {
	var out counters
	err := e.call(ctx, http.MethodGet, "/v1/healthz", nil, &out)
	return out, err
}
