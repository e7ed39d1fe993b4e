package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"transched"
)

// waitForFile polls until path exists and is non-empty.
func waitForFile(t *testing.T, path string) string {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if data, err := os.ReadFile(path); err == nil && len(data) > 0 {
			return string(data)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("%s never appeared", path)
	return ""
}

// TestRunServesAndDrains boots the daemon in process on an ephemeral
// port, solves a trace over HTTP, then cancels the context — the
// signal path — and expects a clean drained exit.
func TestRunServesAndDrains(t *testing.T) {
	traces, err := transched.GenerateTraces("HF", transched.Cascade(),
		transched.TraceConfig{Seed: 9, Processes: 1, MinTasks: 15, MaxTasks: 15})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := transched.WriteTrace(&sb, traces[0]); err != nil {
		t.Fatal(err)
	}

	addrFile := filepath.Join(t.TempDir(), "addr")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var stderr bytes.Buffer
	errc := make(chan error, 1)
	go func() {
		errc <- run(ctx, []string{"-addr", "127.0.0.1:0", "-addr-file", addrFile, "-quiet"}, &stderr)
	}()
	addr := waitForFile(t, addrFile)

	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz: %d", resp.StatusCode)
	}

	resp, err = http.Post("http://"+addr+"/solve?heuristic=OOLCMR&capacity=1.5", "text/plain",
		strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/solve: %d: %s", resp.StatusCode, body)
	}
	var out struct {
		Best struct {
			Heuristic string  `json:"heuristic"`
			Makespan  float64 `json:"makespan"`
		} `json:"best"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("response not JSON: %v\n%s", err, body)
	}
	if out.Best.Heuristic != "OOLCMR" || out.Best.Makespan <= 0 {
		t.Errorf("best = %+v", out.Best)
	}

	cancel()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("run exited with %v\nstderr: %s", err, stderr.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not drain after cancel")
	}
	if !strings.Contains(stderr.String(), "listening on http://") {
		t.Errorf("missing listen banner in stderr: %q", stderr.String())
	}
}

func TestRunFlagErrors(t *testing.T) {
	for _, c := range []struct {
		name, wantErr string
		args          []string
	}{
		{"unknown flag", "flag provided but not defined: -nope", []string{"-nope"}},
		// The shard router and micro-batching are gone: their flags are
		// unknown, not silently ignored.
		{"removed route", "flag provided but not defined: -route", []string{"-route", "http://h1:8080"}},
		{"removed replicas", "flag provided but not defined: -replicas", []string{"-replicas", "2"}},
		{"removed batch-size", "flag provided but not defined: -batch-size", []string{"-batch-size", "4"}},
		{"removed batch-wait", "flag provided but not defined: -batch-wait", []string{"-batch-wait", "5ms"}},
		// Schedules are computed from the durations a request carries:
		// the duration-model fill is gone with its flag.
		{"removed model", "flag provided but not defined: -model", []string{"-model", "ridge"}},
		{"unusable address", "", []string{"-addr", "256.256.256.256:bad"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			var stderr bytes.Buffer
			err := run(context.Background(), c.args, &stderr)
			if err == nil {
				t.Fatalf("%v accepted", c.args)
			}
			if c.wantErr != "" && !strings.Contains(err.Error()+stderr.String(), c.wantErr) {
				t.Errorf("error %q (stderr %q) does not say %q", err, stderr.String(), c.wantErr)
			}
		})
	}
}

// startDaemon boots run() on an ephemeral port with extra flags and
// returns the bound address plus a cancel-and-wait shutdown func.
func startDaemon(t *testing.T, extra ...string) (string, func() error) {
	t.Helper()
	addrFile := filepath.Join(t.TempDir(), "addr")
	ctx, cancel := context.WithCancel(context.Background())
	args := append([]string{"-addr", "127.0.0.1:0", "-addr-file", addrFile, "-quiet"}, extra...)
	errc := make(chan error, 1)
	var stderr bytes.Buffer
	go func() { errc <- run(ctx, args, &stderr) }()
	addr := waitForFile(t, addrFile)
	stopped := false
	stop := func() error {
		if stopped {
			return nil
		}
		stopped = true
		cancel()
		select {
		case err := <-errc:
			if err != nil {
				return err
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("daemon on %s did not drain\nstderr: %s", addr, stderr.String())
		}
		return nil
	}
	t.Cleanup(func() { stop() })
	return addr, stop
}

func solveTrace(t *testing.T, addr, traceText string) *http.Response {
	t.Helper()
	resp, err := http.Post("http://"+addr+"/solve?capacity=1.5", "text/plain", strings.NewReader(traceText))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func testTraceText(t *testing.T, seed int64) string {
	t.Helper()
	traces, err := transched.GenerateTraces("HF", transched.Cascade(),
		transched.TraceConfig{Seed: seed, Processes: 1, MinTasks: 12, MaxTasks: 12})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := transched.WriteTrace(&sb, traces[0]); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestRunWarmRestart: a daemon with -cache-dir restarted over the same
// directory answers a previously solved instance from disk — the
// response is a cache hit on the very first request of the new life.
func TestRunWarmRestart(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	text := testTraceText(t, 17)

	addr, stop := startDaemon(t, "-cache-dir", dir)
	resp := solveTrace(t, addr, text)
	firstBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first life solve: %d: %s", resp.StatusCode, firstBody)
	}
	if got := resp.Header.Get("X-Transched-Cache"); got != "miss" {
		t.Fatalf("first life cache header = %q", got)
	}
	if err := stop(); err != nil {
		t.Fatalf("first life exit: %v", err)
	}

	addr2, _ := startDaemon(t, "-cache-dir", dir)
	resp = solveTrace(t, addr2, text)
	secondBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second life solve: %d: %s", resp.StatusCode, secondBody)
	}
	if got := resp.Header.Get("X-Transched-Cache"); got != "hit" {
		t.Errorf("second life cache header = %q, want hit (disk store survived the restart)", got)
	}
	if !bytes.Equal(firstBody, secondBody) {
		t.Error("disk-served response differs from the originally computed one")
	}
}
