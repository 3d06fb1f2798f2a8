package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

func TestRunFlagErrors(t *testing.T) {
	cases := [][]string{
		{"-definitely-not-a-flag"},
		{},                         // missing -data
		{"-data", ""},              // empty -data
		{"-data", "x", "-workers"}, // missing value
	}
	for _, args := range cases {
		var out, errOut bytes.Buffer
		if err := run(context.Background(), args, &out, &errOut); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

// TestRunEndToEnd boots the daemon on an ephemeral port, drives one tiny
// assess job through POST → poll → SSE → DELETE, and shuts down on
// context cancel.
func TestRunEndToEnd(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	pr, pw := newLinePipe()
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "localhost:0", "-data", dir, "-workers", "1"}, pw, &bytes.Buffer{})
	}()

	// The first stdout line carries the bound address.
	var base string
	select {
	case line := <-pr:
		i := strings.Index(line, "http://")
		if i < 0 {
			t.Fatalf("no address in startup line %q", line)
		}
		base = strings.Fields(line[i:])[0]
	case err := <-done:
		t.Fatalf("daemon exited early: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never announced its address")
	}

	resp, err := http.Post(base+"/jobs", "application/json", strings.NewReader(
		`{"type":"assess","config":{"cipher":"gift64","round":25,"groups":[0],"samples":128,"seed":3}}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /jobs status = %d", resp.StatusCode)
	}
	var job struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(base + "/jobs/" + job.ID)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if job.State == "done" {
			break
		}
		if job.State == "failed" || job.State == "cancelled" {
			t.Fatalf("job settled %s", job.State)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", job.State)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// SSE on the finished job terminates with a done frame.
	resp, err = http.Get(base + "/jobs/" + job.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	sawDone := false
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if sc.Text() == "event: done" {
			sawDone = true
		}
	}
	resp.Body.Close()
	if !sawDone {
		t.Fatal("SSE stream never sent the done frame")
	}

	// Observability surface: readiness, fleet stats, the per-job report
	// and the labeled Prometheus scrape all work on a live daemon.
	resp, err = http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /readyz status = %d, want 200 while accepting", resp.StatusCode)
	}

	resp, err = http.Get(base + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Totals struct {
			Jobs int `json:"jobs"`
		} `json:"totals"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Totals.Jobs != 1 {
		t.Fatalf("GET /stats totals.jobs = %d, want 1", stats.Totals.Jobs)
	}

	resp, err = http.Get(base + "/jobs/" + job.ID + "/report")
	if err != nil {
		t.Fatal(err)
	}
	report, _ := readAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /jobs/{id}/report status = %d", resp.StatusCode)
	}
	if !strings.Contains(report, "# Run report:") || !strings.Contains(report, "job cost:") {
		t.Fatalf("report missing expected sections:\n%s", report)
	}

	resp, err = http.Get(base + "/metrics?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	prom, _ := readAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		`server_jobs_done_total{kind="assess",tenant=""} 1`,
		`cipher="gift64",fault_model="default",kind="assess",tenant=""`,
		"runtime_goroutines",
		"# TYPE server_job_seconds histogram",
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("prometheus scrape missing %q", want)
		}
	}

	req, _ := http.NewRequest(http.MethodDelete, base+"/jobs/"+job.ID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE status = %d", resp.StatusCode)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon shutdown: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon never shut down")
	}
}

func readAll(r io.Reader) (string, error) {
	b, err := io.ReadAll(r)
	return string(b), err
}

// newLinePipe returns a channel of written lines backed by an io.Writer.
func newLinePipe() (<-chan string, *lineWriter) {
	ch := make(chan string, 16)
	return ch, &lineWriter{ch: ch}
}

type lineWriter struct {
	ch  chan string
	buf []byte
}

func (w *lineWriter) Write(p []byte) (int, error) {
	w.buf = append(w.buf, p...)
	for {
		i := bytes.IndexByte(w.buf, '\n')
		if i < 0 {
			return len(p), nil
		}
		select {
		case w.ch <- string(w.buf[:i]):
		default:
		}
		w.buf = w.buf[i+1:]
	}
}

// startDaemon runs the daemon on an ephemeral port until the test ends
// and returns its host:port.
func startDaemon(t *testing.T) string {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	pr, pw := newLinePipe()
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "localhost:0", "-data", t.TempDir(), "-workers", "1"}, pw, &bytes.Buffer{})
	}()
	t.Cleanup(func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("daemon shutdown: %v", err)
		}
	})
	select {
	case line := <-pr:
		i := strings.Index(line, "http://")
		if i < 0 {
			t.Fatalf("no address in startup line %q", line)
		}
		return strings.TrimPrefix(strings.Fields(line[i:])[0], "http://")
	case err := <-done:
		t.Fatalf("daemon exited early: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never announced its address")
	}
	return ""
}

// TestRunDropsSlowHeaderClient: a client that sends half a request line
// and then stalls is disconnected once the header timeout passes (net/http
// may first answer the partial request with a 400), and the daemon keeps
// serving others.
func TestRunDropsSlowHeaderClient(t *testing.T) {
	defer func(d time.Duration) { readHeaderTimeout = d }(readHeaderTimeout)
	readHeaderTimeout = 200 * time.Millisecond
	addr := startDaemon(t)

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /healthz HT"); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	start := time.Now()
	got, err := io.ReadAll(conn)
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("connection still open after %v; want it closed after the %v header timeout",
			time.Since(start).Round(time.Millisecond), readHeaderTimeout)
	}
	if len(got) != 0 && !bytes.HasPrefix(got, []byte("HTTP/1.1 400 ")) {
		t.Errorf("stalled client got %q; want the connection closed, at most with a 400", got)
	}

	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("GET /healthz after the dropped client: status %d", resp.StatusCode)
	}
}

// TestRunRejectsOversizedHeaders: request headers past maxHeaderBytes
// get 431 instead of being buffered.
func TestRunRejectsOversizedHeaders(t *testing.T) {
	addr := startDaemon(t)
	req, err := http.NewRequest(http.MethodGet, "http://"+addr+"/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Padding", strings.Repeat("a", 2*maxHeaderBytes))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestHeaderFieldsTooLarge {
		t.Errorf("oversized headers: status %d, want %d", resp.StatusCode, http.StatusRequestHeaderFieldsTooLarge)
	}
}
