// Package trace is the span layer of the observability stack: a
// zero-cost-when-nil tracer that records the logical phases of a run
// (run → phase → shard → episode → oracle-eval) as spans with parent
// IDs, monotonic timestamps and attribute maps, and exports them as
// Chrome trace-event JSON loadable in Perfetto (ui.perfetto.dev) or
// chrome://tracing.
//
// # Zero cost when disabled
//
// Like the metrics registry of internal/obs, the disabled state is the
// zero value: a nil *Tracer is valid, StartRoot on it returns a nil
// *Span, StartSpan on a context without a span returns a nil *Span, and
// every method on a nil span is a single predictable-branch no-op that
// never reads the clock. Instrumented code therefore never branches on
// configuration, and a disabled run pays one context lookup per span
// site — at shard/episode granularity, not per trace.
//
// # Emission-only by design
//
// Spans are write-only: nothing in the repository ever reads a span back
// during a run, and recording a span draws no randomness and takes no
// locks on any simulation path. This is what keeps results bit-identical
// with tracing on or off (proved by obs_determinism_test.go at the
// repository root).
//
// # Span hierarchy and context propagation
//
// Parenthood flows through context.Context: StartRoot attaches a root
// span to a context, and every instrumented layer below derives children
// with StartSpan from the context it was handed. Because the repository
// already threads contexts through Session.Run → Env → Oracle →
// evaluate.RunSharded → fault.Campaign for cancellation, the span tree
// follows the call tree with no extra plumbing.
//
// # runtime/trace mirroring
//
// Spans started with StartSpan/StartRoot are mirrored into
// runtime/trace regions (a no-op unless a runtime trace is being
// captured, e.g. via the debug server's /debug/pprof/trace endpoint),
// so CPU profiles and scheduler traces correlate with logical phases.
// Regions must start and end on one goroutine; spans that end on a
// different goroutine than they started on (episode spans, whose Reset
// and terminal Step may run on different runner goroutines) use
// StartSpanCross, which skips the mirror.
package trace

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	rtrace "runtime/trace"
	"sort"
	"sync"
	"time"
)

// Canonical span names used by the instrumented subsystems. The
// obsreport CLI groups phase latency by these names.
const (
	SpanRun        = "run"         // one CLI invocation
	SpanSession    = "session"     // one training session (explore.Session.Run)
	SpanEpisode    = "episode"     // one RL episode (explore.Env)
	SpanPPOUpdate  = "ppo_update"  // one PPO update, or one network's half of it
	SpanOracleEval = "oracle_eval" // one oracle evaluation (cache hit or miss)
	SpanAssess     = "assess"      // one leakage assessment (evaluate.Engine)
	SpanShard      = "shard"       // one campaign shard (evaluate.RunSharded)
	SpanCollect    = "collect"     // one fault.Campaign trace collection
	SpanTrain      = "train"       // discovery training phase (Discover)
	SpanHarvest    = "harvest"     // abstraction/verification phase (Discover)
	SpanSweep      = "sweep"       // one exhaustive sweep (sweep.Run)
	SpanSweepShard = "sweep_shard" // one cell shard of a sweep
)

// LaneMain is the Chrome "thread" lane of the main control flow; spans
// inherit their parent's lane unless OwnLane or SetLane moves them.
const LaneMain = 0

// laneSpanBase offsets OwnLane lanes above any hand-assigned lane, so a
// span promoted to its own track can never collide with the main lane or
// the per-environment lanes the session assigns.
const laneSpanBase = 1 << 20

// DefaultMaxSpans bounds the in-memory span buffer (~100 B/span). Spans
// past the cap are counted in Dropped instead of recorded, so a runaway
// run degrades to a truncated trace rather than unbounded memory.
const DefaultMaxSpans = 1 << 20

// Tracer accumulates completed spans and writes them out as one Chrome
// trace-event JSON document. It is safe for concurrent use; a nil
// *Tracer is the disabled state.
type Tracer struct {
	mu      sync.Mutex
	events  []chromeEvent
	lanes   map[int64]string
	nextID  uint64
	dropped uint64
	max     int
	epoch   time.Time
	file    *os.File
	closed  bool
}

// chromeEvent is one entry of the trace-event format: a complete ("X")
// duration slice or a metadata ("M") record. Timestamps and durations
// are microseconds; pid/tid place the slice on a track.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int64          `json:"pid"`
	TID  int64          `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the JSON object format Perfetto accepts (the bare
// array format is also legal, but the object form carries metadata).
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// New returns an enabled in-memory tracer; read it back with Export.
func New() *Tracer {
	return &Tracer{
		lanes: map[int64]string{LaneMain: "main"},
		max:   DefaultMaxSpans,
		epoch: time.Now(),
	}
}

// Open creates (or truncates) path and returns a tracer that writes the
// trace document there on Close. An empty path returns a nil tracer
// (the disabled state) and no error, so CLI flag plumbing needs no
// branch.
func Open(path string) (*Tracer, error) {
	if path == "" {
		return nil, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("trace: opening trace file: %w", err)
	}
	t := New()
	t.file = f
	return t, nil
}

// NameLane labels a Chrome lane (Perfetto renders it as the thread
// name). No-op on a nil tracer.
func (t *Tracer) NameLane(lane int64, name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.lanes[lane] = name
	t.mu.Unlock()
}

// Dropped reports how many spans were discarded after the buffer cap.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Span is one timed region of a run. The zero value and nil are inert;
// spans are not safe for concurrent use (each belongs to one logical
// flow), matching how the instrumented call sites use them.
type Span struct {
	tr     *Tracer
	id     uint64
	parent uint64
	name   string
	lane   int64
	start  time.Duration
	attrs  map[string]any
	region *rtrace.Region
	ended  bool
}

// ctxKey carries the current span through a context.
type ctxKey struct{}

// ContextWithSpan returns a context carrying the span; StartSpan on the
// result derives children of it.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, s)
}

// FromContext returns the span carried by ctx, or nil.
func FromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}

// StartRoot begins a top-level span and returns it along with a context
// carrying it. On a nil tracer both return values are the inputs'
// no-op equivalents (nil span, unchanged context).
func (t *Tracer) StartRoot(ctx context.Context, name string) (*Span, context.Context) {
	if t == nil {
		return nil, ctx
	}
	s := t.newSpan(nil, name, LaneMain)
	s.region = rtrace.StartRegion(ctx, name)
	return s, ContextWithSpan(ctx, s)
}

// StartSpan begins a child of the span carried by ctx and returns it
// along with a context carrying the child. When ctx carries no span
// (tracing disabled) it returns (nil, ctx) without reading the clock.
// The span must End on the goroutine that started it (it is mirrored
// into a runtime/trace region); use StartSpanCross otherwise.
func StartSpan(ctx context.Context, name string) (*Span, context.Context) {
	parent := FromContext(ctx)
	if parent == nil {
		return nil, ctx
	}
	s := parent.tr.newSpan(parent, name, parent.lane)
	s.region = rtrace.StartRegion(ctx, name)
	return s, ContextWithSpan(ctx, s)
}

// StartSpanCross is StartSpan without the runtime/trace region mirror,
// for spans that may end on a different goroutine than they started on
// (regions require one goroutine; the span record itself does not).
func StartSpanCross(ctx context.Context, name string) (*Span, context.Context) {
	parent := FromContext(ctx)
	if parent == nil {
		return nil, ctx
	}
	s := parent.tr.newSpan(parent, name, parent.lane)
	return s, ContextWithSpan(ctx, s)
}

// newSpan allocates a started span; t must be non-nil.
func (t *Tracer) newSpan(parent *Span, name string, lane int64) *Span {
	t.mu.Lock()
	t.nextID++
	id := t.nextID
	t.mu.Unlock()
	s := &Span{tr: t, id: id, name: name, lane: lane, start: time.Since(t.epoch)}
	if parent != nil {
		s.parent = parent.id
	}
	return s
}

// Tracer returns the tracer that recorded the span (nil on a nil span),
// letting instrumented code reach lane naming without extra plumbing.
func (s *Span) Tracer() *Tracer {
	if s == nil {
		return nil
	}
	return s.tr
}

// SetAttr attaches one key/value to the span. No-op on a nil span.
func (s *Span) SetAttr(key string, v any) {
	if s == nil {
		return
	}
	if s.attrs == nil {
		s.attrs = make(map[string]any, 4)
	}
	s.attrs[key] = v
}

// SetLane moves the span to a specific Chrome lane (Perfetto track).
// Concurrent siblings must not share a lane, or their slices would
// overlap on one track; sequential reuse is fine.
func (s *Span) SetLane(lane int64) {
	if s != nil {
		s.lane = lane
	}
}

// OwnLane moves the span to a lane derived from its own ID, guaranteeing
// no overlap with any other span. Used for spans whose siblings run
// concurrently with unknown multiplicity (campaign shards).
func (s *Span) OwnLane() {
	if s != nil {
		s.lane = laneSpanBase + int64(s.id)
	}
}

// End completes the span and records it. Idempotent; no-op on nil.
func (s *Span) End() {
	if s == nil || s.ended {
		return
	}
	s.ended = true
	if s.region != nil {
		s.region.End()
	}
	dur := time.Since(s.tr.epoch) - s.start
	if dur < 0 {
		dur = 0
	}
	args := make(map[string]any, len(s.attrs)+2)
	for k, v := range s.attrs {
		args[k] = v
	}
	args["span_id"] = s.id
	if s.parent != 0 {
		args["parent_id"] = s.parent
	}
	ev := chromeEvent{
		Name: s.name,
		Cat:  "explorefault",
		Ph:   "X",
		TS:   float64(s.start) / float64(time.Microsecond),
		Dur:  float64(dur) / float64(time.Microsecond),
		PID:  1,
		TID:  s.lane,
		Args: args,
	}
	t := s.tr
	t.mu.Lock()
	if len(t.events) >= t.max {
		t.dropped++
	} else {
		t.events = append(t.events, ev)
	}
	t.mu.Unlock()
}

// Export writes the accumulated spans as one Chrome trace-event JSON
// document: process/thread metadata first, then every completed span in
// completion order. The tracer stays usable afterwards. No-op (and no
// output) on a nil tracer.
func (t *Tracer) Export(w io.Writer) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	doc := chromeTrace{DisplayTimeUnit: "ms"}
	lanes := make(map[int64]string, len(t.lanes))
	for lane, name := range t.lanes {
		lanes[lane] = name
	}
	for _, ev := range t.events {
		if _, ok := lanes[ev.TID]; !ok {
			lanes[ev.TID] = fmt.Sprintf("lane %d", ev.TID)
		}
	}
	laneIDs := make([]int64, 0, len(lanes))
	for lane := range lanes {
		laneIDs = append(laneIDs, lane)
	}
	sort.Slice(laneIDs, func(i, j int) bool { return laneIDs[i] < laneIDs[j] })
	doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
		Name: "process_name", Ph: "M", PID: 1, TID: LaneMain,
		Args: map[string]any{"name": "explorefault"},
	})
	for _, lane := range laneIDs {
		doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
			Name: "thread_name", Ph: "M", PID: 1, TID: lane,
			Args: map[string]any{"name": lanes[lane]},
		})
	}
	doc.TraceEvents = append(doc.TraceEvents, t.events...)
	dropped := t.dropped
	t.mu.Unlock()

	enc := json.NewEncoder(w)
	if err := enc.Encode(doc); err != nil {
		return fmt.Errorf("trace: encoding trace document: %w", err)
	}
	if dropped > 0 {
		return fmt.Errorf("trace: %d spans dropped past the %d-span buffer cap (trace is truncated)", dropped, t.max)
	}
	return nil
}

// Close writes the trace document to the file given at Open (if any)
// and releases it. Idempotent; no-op (nil error) on a nil tracer or an
// in-memory tracer.
func (t *Tracer) Close() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	if t.closed || t.file == nil {
		t.closed = true
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	f := t.file
	t.file = nil
	t.mu.Unlock()

	werr := t.Export(f)
	cerr := f.Close()
	if werr != nil {
		return werr
	}
	return cerr
}
