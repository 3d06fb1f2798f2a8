package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	explorefault "repro"
	"repro/internal/obs"
	"repro/internal/prng"
)

// Job-server workload shape: two closed-loop clients against a server
// with two workers, every sweepEvery-th job of a client a one-round
// sweep, and a GET /stats every statsEvery-th job.
const (
	jobClients  = 2
	jobWorkers  = 2
	sweepEvery  = 8
	statsEvery  = 16
	assessPool  = 16
	jobsTimeout = 60 * time.Second
)

// assessSpec is the config document of one assess job (the fields of the
// job server's assess config this workload sets).
type assessSpec struct {
	Cipher  string `json:"cipher"`
	Round   int    `json:"round"`
	Groups  []int  `json:"groups"`
	Samples int    `json:"samples"`
	Workers int    `json:"workers"`
	Seed    uint64 `json:"seed"`
}

// sweepSpec is the config document of one sweep job.
type sweepSpec struct {
	Cipher  string `json:"cipher"`
	Rounds  []int  `json:"rounds"`
	Samples int    `json:"samples"`
	Workers int    `json:"workers"`
	Seed    uint64 `json:"seed"`
}

// jobOutcome is one finished job as the client saw it.
type jobOutcome struct {
	phase  string
	kind   string
	config int // index into assess or sweep
	result json.RawMessage
}

// jobsWorkload drives an in-process job server over loopback HTTP, the
// way explorefaultd is used: clients submit small assess jobs (and now
// and then a sweep job), follow each job's SSE event stream to its end,
// then fetch the job record. Every phase starts from an empty data
// directory, so the durable job table grows with every job, and the
// store's writes run beside the API's reads.
type jobsWorkload struct {
	root   string
	assess []assessSpec
	sweeps []sweepSpec

	dir     string
	srv     *explorefault.JobServer
	httpSrv *http.Server
	served  chan error
	client  *http.Client
	base    string

	mu       sync.Mutex
	outcomes []jobOutcome
	failures []string
}

func newJobs(root string, seed uint64) workload {
	rng := prng.New(seed)
	w := &jobsWorkload{root: root}
	for i := 0; i < assessPool; i++ {
		groups := []int{rng.Intn(16)}
		if i%2 == 1 {
			groups = append(groups, (groups[0]+1+rng.Intn(15))%16)
		}
		w.assess = append(w.assess, assessSpec{
			Cipher: "gift64", Round: 24 + rng.Intn(3), Groups: groups,
			Samples: 256, Workers: 1, Seed: rng.Uint64(),
		})
	}
	for i := 0; i < 2; i++ {
		w.sweeps = append(w.sweeps, sweepSpec{
			Cipher: "gift64", Rounds: []int{25 + i}, Samples: 128, Workers: 1, Seed: rng.Uint64(),
		})
	}
	return w
}

// setup starts a job server on an empty data directory behind a
// loopback listener, waits until it reports ready, and runs one assess
// job through it (the first job pays the engines' lazy set-up), which it
// then purges so the phase starts from an empty job table.
func (w *jobsWorkload) setup(dir string, metrics *obs.Registry) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	srv, err := explorefault.NewJobServer(explorefault.JobServerConfig{
		DataDir: dir, Workers: jobWorkers, Metrics: metrics,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return err
	}
	w.dir, w.srv = dir, srv
	w.httpSrv = &http.Server{Handler: srv.Handler()}
	w.served = make(chan error, 1)
	go func() { w.served <- w.httpSrv.Serve(ln) }()
	w.client = &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 2 * jobClients},
		Timeout:   jobsTimeout,
	}
	w.base = "http://" + ln.Addr().String()
	resp, err := w.client.Get(w.base + "/readyz")
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("readyz: %s", resp.Status)
	}
	spec, _, _ := w.spec(0, 0)
	rec, err := w.roundTrip(spec)
	if err != nil {
		return fmt.Errorf("first job: %w", err)
	}
	if rec.State != "done" {
		return fmt.Errorf("first job ended %s: %s", rec.State, rec.Error)
	}
	req, err := http.NewRequest(http.MethodDelete, w.base+"/jobs/"+rec.ID, nil)
	if err != nil {
		return err
	}
	if resp, err = w.client.Do(req); err != nil {
		return err
	}
	resp.Body.Close()
	if n := len(srv.Jobs()); n != 0 {
		return fmt.Errorf("purging the first job left %d records", n)
	}
	return nil
}

// release stops the HTTP server, then the job server, and waits for
// both.
func (w *jobsWorkload) release() {
	if w.srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := w.httpSrv.Shutdown(ctx); err != nil {
		w.httpSrv.Close()
	}
	<-w.served
	w.client.CloseIdleConnections()
	w.srv.Close()
	w.srv = nil
}

func (w *jobsWorkload) run(ctx context.Context, p *phase, deadline time.Time) error {
	type clientStats struct {
		rtt, queue, run, overhead []float64
		err                       error
	}
	stats := make([]clientStats, jobClients)
	var wg sync.WaitGroup
	for c := 0; c < jobClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			st := &stats[c]
			for j := 0; j == 0 || time.Now().Before(deadline); j++ {
				if j%statsEvery == statsEvery-1 {
					if st.err = w.checkStats(); st.err != nil {
						return
					}
				}
				spec, kind, idx := w.spec(c, j)
				t0 := time.Now()
				rec, err := w.roundTrip(spec)
				if err != nil {
					st.err = err
					return
				}
				rtt := time.Since(t0).Seconds()
				w.mu.Lock()
				if rec.State != "done" {
					w.failures = append(w.failures, fmt.Sprintf("job %s ended %s: %s", rec.ID, rec.State, rec.Error))
				} else {
					w.outcomes = append(w.outcomes, jobOutcome{phase: p.name, kind: kind, config: idx, result: rec.Result})
				}
				w.mu.Unlock()
				var queue, runS float64
				if rec.Usage != nil {
					queue, runS = rec.Usage.QueueSeconds, rec.Usage.WallSeconds
				}
				st.rtt = append(st.rtt, rtt*1e3)
				st.queue = append(st.queue, queue*1e3)
				st.run = append(st.run, runS*1e3)
				st.overhead = append(st.overhead, (rtt-queue-runS)*1e3)
			}
		}(c)
	}
	wg.Wait()
	var queue, runMS, overhead []float64
	for _, st := range stats {
		if st.err != nil {
			return st.err
		}
		p.latMS = append(p.latMS, st.rtt...)
		queue = append(queue, st.queue...)
		runMS = append(runMS, st.run...)
		overhead = append(overhead, st.overhead...)
	}
	p.units = float64(len(p.latMS))
	p.add("queue_wait_ms", median(queue))
	p.add("run_ms", median(runMS))
	p.add("overhead_ms", median(overhead))
	p.add("table_records", float64(len(w.srv.Jobs())))
	if fi, err := os.Stat(filepath.Join(w.dir, "jobs.ckpt")); err == nil {
		p.add("table_bytes", float64(fi.Size()))
	}
	if p.metrics != nil {
		p.snap = w.srv.MetricsSnapshot()
	}
	return nil
}

// spec returns client c's j-th job spec, its kind and config index.
func (w *jobsWorkload) spec(c, j int) (explorefault.JobSpec, string, int) {
	var cfg any
	kind, idx := "assess", (c*7+j)%len(w.assess)
	cfg = w.assess[idx]
	if j%sweepEvery == sweepEvery-1 {
		kind, idx = "sweep", (c+j/sweepEvery)%len(w.sweeps)
		cfg = w.sweeps[idx]
	}
	raw, err := json.Marshal(cfg)
	if err != nil {
		panic(err) // plain structs always marshal
	}
	return explorefault.JobSpec{Type: kind, Tenant: fmt.Sprintf("client-%d", c), Config: raw}, kind, idx
}

// roundTrip submits one job, follows its SSE stream to the end and
// fetches the final record.
func (w *jobsWorkload) roundTrip(spec explorefault.JobSpec) (*explorefault.JobRecord, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	resp, err := w.client.Post(w.base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	var sub explorefault.JobRecord
	err = decodeResponse(resp, http.StatusAccepted, &sub)
	if err != nil {
		return nil, fmt.Errorf("submit: %w", err)
	}
	resp, err = w.client.Get(w.base + "/jobs/" + sub.ID + "/events")
	if err != nil {
		return nil, err
	}
	done, err := readUntilDone(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, fmt.Errorf("job %s events: %w", sub.ID, err)
	}
	if !done {
		return nil, fmt.Errorf("job %s: event stream ended without a done frame", sub.ID)
	}
	resp, err = w.client.Get(w.base + "/jobs/" + sub.ID)
	if err != nil {
		return nil, err
	}
	var rec explorefault.JobRecord
	if err := decodeResponse(resp, http.StatusOK, &rec); err != nil {
		return nil, fmt.Errorf("job %s: %w", sub.ID, err)
	}
	return &rec, nil
}

// readUntilDone consumes an SSE stream and reports whether it carried
// the final "event: done" frame.
func readUntilDone(r io.Reader) (bool, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 4<<20)
	done := false
	for sc.Scan() {
		if sc.Text() == "event: done" {
			done = true
		}
	}
	return done, sc.Err()
}

func decodeResponse(resp *http.Response, want int, v any) error {
	defer resp.Body.Close()
	if resp.StatusCode != want {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(msg)))
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// checkStats reads GET /stats and checks it accounts for at least one
// job.
func (w *jobsWorkload) checkStats() error {
	resp, err := w.client.Get(w.base + "/stats")
	if err != nil {
		return err
	}
	var st explorefault.FleetStats
	if err := decodeResponse(resp, http.StatusOK, &st); err != nil {
		return fmt.Errorf("stats: %w", err)
	}
	if st.Totals.Jobs < 1 {
		return errors.New("stats: no jobs on record")
	}
	return nil
}

// verify recomputes every distinct job configuration with a direct
// AssessContext (or Sweep) call and requires each job's result to equal
// it. The sweep engine behind the sweep jobs must also reproduce the
// checked-in golden atlases.
func (w *jobsWorkload) verify(ctx context.Context, c *checks) error {
	verifyGoldens(ctx, w.root, c)
	want := map[string]string{}
	expected := func(kind string, idx int) (string, error) {
		key := fmt.Sprintf("%s/%d", kind, idx)
		if v, ok := want[key]; ok {
			return v, nil
		}
		var v string
		var err error
		if kind == "assess" {
			v, err = directAssess(ctx, w.assess[idx])
		} else {
			v, err = directSweep(ctx, w.sweeps[idx])
		}
		if err != nil {
			return "", err
		}
		want[key] = v
		return v, nil
	}
	var failures []string
	failures = append(failures, w.failures...)
	for _, o := range w.outcomes {
		exp, err := expected(o.kind, o.config)
		if err != nil {
			return err
		}
		got, err := jobFingerprint(o.kind, o.result)
		if err != nil || got != exp {
			failures = append(failures, fmt.Sprintf("%s job (config %d, %s phase): result %s, direct call %s (%v)", o.kind, o.config, o.phase, got, exp, err))
		}
	}
	c.tally(len(w.outcomes)+len(w.failures), failures)
	return nil
}

// jobFingerprint extracts the deterministic fields of a job result.
func jobFingerprint(kind string, raw json.RawMessage) (string, error) {
	if kind == "assess" {
		var r struct {
			T         float64 `json:"t"`
			Leaky     bool    `json:"leaky"`
			Threshold float64 `json:"threshold"`
			Order     int     `json:"order"`
			Point     string  `json:"point"`
		}
		if err := json.Unmarshal(raw, &r); err != nil {
			return "", err
		}
		return assessFingerprint(r.T, r.Leaky, r.Threshold, r.Order, r.Point), nil
	}
	var r struct {
		SHA256 string `json:"sha256"`
	}
	if err := json.Unmarshal(raw, &r); err != nil {
		return "", err
	}
	return r.SHA256, nil
}

func assessFingerprint(t float64, leaky bool, threshold float64, order int, point string) string {
	return fmt.Sprintf("t=%v leaky=%v threshold=%v order=%d point=%s", t, leaky, threshold, order, point)
}

func directAssess(ctx context.Context, s assessSpec) (string, error) {
	info, err := explorefault.LookupCipher(s.Cipher)
	if err != nil {
		return "", err
	}
	pattern := explorefault.PatternFromGroups(info.BlockBytes*8, info.GroupBits, s.Groups...)
	a, err := explorefault.AssessContext(ctx, pattern, explorefault.AssessConfig{
		Cipher: s.Cipher, Round: s.Round, Samples: s.Samples, Workers: s.Workers, Seed: s.Seed,
	})
	if err != nil {
		return "", err
	}
	return assessFingerprint(a.T, a.Leaky, a.Threshold, a.Order, a.Point), nil
}

func directSweep(ctx context.Context, s sweepSpec) (string, error) {
	atlas, err := explorefault.Sweep(ctx, explorefault.SweepConfig{
		Cipher: s.Cipher, Rounds: s.Rounds, Samples: s.Samples, Workers: s.Workers, Seed: s.Seed,
	})
	if err != nil {
		return "", err
	}
	data, err := atlas.MarshalCanonical()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

func (w *jobsWorkload) layerMetrics(p *phase, m map[string]float64) {
	for _, k := range []string{"queue_wait_ms", "run_ms", "overhead_ms", "table_records", "table_bytes"} {
		m["server."+k] = p.extra[k]
	}
	sweepMetrics(p, m)
}

// agreement makes no comparison: the server runs each job on a context
// of its own, which the benchmark's tracer does not reach, so the jobs
// workload has no spans. The job records' run time is no substitute:
// it includes the runner's file writes and fsyncs, and on four seeds it
// read 1.2 to 2.1 times the engine packages' profiled CPU time.
func (w *jobsWorkload) agreement(*phase) []shareCheck { return nil }

func (w *jobsWorkload) native(p *phase) map[string]float64 {
	lat := summarize(p.latMS)
	return map[string]float64{
		"jobs_per_s":           p.unitsPerSec(),
		"job_rtt_p50_ms":       lat.P50,
		"job_rtt_p95_ms":       quantile(p.latMS, 0.95),
		"job_rtt_samples":      float64(lat.N),
		"job_rtt_tail_pct":     lat.Pct,
		"job_rtt_tail_ms":      lat.Value,
		"cpu_ms_per_job":       p.cpuPerUnit().Seconds() * 1e3,
		"server_queue_wait_ms": p.extra["queue_wait_ms"],
		"server_run_ms":        p.extra["run_ms"],
		"server_overhead_ms":   p.extra["overhead_ms"],
		"table_records":        p.extra["table_records"],
		"table_bytes":          p.extra["table_bytes"],
	}
}
