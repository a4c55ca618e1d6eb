package main

import (
	"bytes"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/serve"
)

// TestServeLoadAndGracefulDrain drives the binary's real code paths end to
// end: serve on a loopback port, complete a -load run (64 replays, 8
// clients, byte-identity asserted against the offline replay inside
// RunLoad), scrape /metrics, then SIGTERM the process and require a clean
// drain.
func TestServeLoadAndGracefulDrain(t *testing.T) {
	tr, err := os.ReadFile("../../trace/testdata/faulted.trace")
	if err != nil {
		t.Fatal(err)
	}
	tracePath := filepath.Join(t.TempDir(), "faulted.trace")
	if err := os.WriteFile(tracePath, tr, 0o644); err != nil {
		t.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	url := "http://" + ln.Addr().String()
	done := make(chan error, 1)
	go func() { done <- serveOn(ln, serve.New(serve.Config{}), 30*time.Second, io.Discard) }()

	if err := runLoad(loadArgs{url: url, traceFile: tracePath, n: 64, c: 8}); err != nil {
		t.Fatalf("load run: %v", err)
	}

	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "pgserved_replays_total 64") {
		t.Fatalf("/metrics missing the 64 completed replays:\n%s", body)
	}

	// SIGTERM to ourselves exercises the signal handler inside serveOn.
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serveOn returned %v, want clean drain", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("serveOn did not drain after SIGTERM")
	}
}

// TestLoadFlagsValidated: load mode refuses to run without its inputs.
func TestLoadFlagsValidated(t *testing.T) {
	if err := runLoad(loadArgs{traceFile: "x", n: 1, c: 1}); err == nil {
		t.Fatal("missing -url accepted")
	}
	if err := runLoad(loadArgs{url: "http://127.0.0.1:1", n: 1, c: 1}); err == nil {
		t.Fatal("missing -trace accepted")
	}
}

// TestRemovedServingPathsRefused: the shipped configuration is the only one.
// A cache below one entry is refused, naming what was removed; main exits 2
// on it.
func TestRemovedServingPathsRefused(t *testing.T) {
	if err := checkServingFlags(1024); err != nil {
		t.Fatalf("shipped flags refused: %v", err)
	}
	for _, cache := range []int{0, -1} {
		err := checkServingFlags(cache)
		if err == nil || !strings.Contains(err.Error(), "can no longer be disabled") {
			t.Errorf("-cache=%d: error %v, want one naming the removed cache-off path", cache, err)
		}
	}
}

// sigtermOnHandshake passes every write through to w, and SIGTERMs its own
// process as the startup handshake line is written: the earliest moment a
// supervisor that waits for the line could signal.
type sigtermOnHandshake struct{ w io.Writer }

func (s sigtermOnHandshake) Write(p []byte) (int, error) {
	n, err := s.w.Write(p)
	if bytes.Contains(p, []byte("listening on")) {
		if kerr := syscall.Kill(os.Getpid(), syscall.SIGTERM); kerr != nil {
			return n, kerr
		}
	}
	return n, err
}

// earlySIGTERMChild marks the re-executed test binary that plays pgserved
// in TestSIGTERMAtHandshakeDrains.
const earlySIGTERMChild = "PGSERVED_TEST_EARLY_SIGTERM_CHILD"

// TestSIGTERMAtHandshakeDrains: a SIGTERM that arrives the moment the
// "listening on" line is written is caught and drained, not taken with the
// default action that kills the process. The test re-executes its own
// binary as the server, because the default action would kill the test
// process itself; the child must exit 0 having printed "drained cleanly".
func TestSIGTERMAtHandshakeDrains(t *testing.T) {
	if os.Getenv(earlySIGTERMChild) == "1" {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		if err := serveOn(ln, serve.New(serve.Config{}), 10*time.Second, sigtermOnHandshake{os.Stdout}); err != nil {
			t.Fatal(err)
		}
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestSIGTERMAtHandshakeDrains$", "-test.count=1", "-test.timeout=60s")
	cmd.Env = append(os.Environ(), earlySIGTERMChild+"=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("child serving pgserved: %v\n%s", err, out)
	}
	if !bytes.Contains(out, []byte("pgserved: drained cleanly")) {
		t.Fatalf("child exited 0 without draining:\n%s", out)
	}
}
