package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func TestFuncPackage(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/rl/ppo.(*Agent).Update":    "repro/internal/rl/ppo",
		"repro/internal/evaluate.RunSharded.func1": "repro/internal/evaluate",
		"runtime.mallocgc":                         "runtime",
		"encoding/gob.(*Encoder).Encode":           "encoding/gob",
		"repro.DiscoverContext":                    "repro",
		"main.main":                                "main",
	} {
		if got := funcPackage(fn); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestFoldByPackage pins the attribution rule: the innermost frame in a
// layer package takes the sample, with library and runtime work charged
// to the layer that called it.
func TestFoldByPackage(t *testing.T) {
	stacks := []struct {
		stack  []string
		nanos  int64
		bucket string
	}{
		{[]string{"repro/internal/nn.(*Linear).forward", "repro/internal/nn.(*MLP).Forward", "repro/internal/rl/ppo.(*Agent).Update"}, 40, "nn"},
		{[]string{"runtime.mallocgc", "repro/internal/rl/ppo.(*Agent).Update"}, 10, "rl"},
		{[]string{"encoding/gob.(*Encoder).Encode", "repro/internal/checkpoint.(*Stages).Put", "repro/internal/server.(*Server).runJob"}, 20, "checkpoint"},
		{[]string{"repro/internal/bitvec.RippleAdd", "repro/internal/ciphers/speck.(*kernel).EncryptForks", "repro/internal/fault.(*Campaign).collect"}, 5, "ciphers"},
		{[]string{"repro/internal/stats.(*Accumulator).Add", "repro/internal/fault.(*Campaign).collect"}, 5, "stats"},
		{[]string{"runtime.scanobject", "runtime.gcBgMarkWorker"}, 8, "runtime"},
		{[]string{"net/http.(*conn).readRequest", "net/http.(*conn).serve"}, 4, "other"},
		{[]string{"repro/internal/prng.(*Source).Uint64", "repro/internal/explore.(*Env).Step"}, 3, "other"},
		{[]string{"syscall.Syscall", "main.(*jobsWorkload).roundTrip"}, 5, "other"},
	}
	var samples []stackSample
	want := map[string]float64{}
	var total float64
	for _, s := range stacks {
		if got := sampleBucket(s.stack); got != s.bucket {
			t.Errorf("sampleBucket(%v) = %q, want %q", s.stack, got, s.bucket)
		}
		samples = append(samples, stackSample{Stack: s.stack, Nanos: s.nanos})
		want[s.bucket] += float64(s.nanos)
		total += float64(s.nanos)
	}
	shares := foldByPackage(samples)
	if len(shares) != len(shareBuckets) {
		t.Errorf("got %d buckets, want every one of %d", len(shares), len(shareBuckets))
	}
	var sum float64
	for _, b := range shareBuckets {
		sum += shares[b.Name]
		if w := want[b.Name] / total; math.Abs(shares[b.Name]-w) > 1e-12 {
			t.Errorf("share %s = %v, want %v", b.Name, shares[b.Name], w)
		}
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("shares sum to %v", sum)
	}
	for _, v := range foldByPackage(nil) {
		if v != 0 {
			t.Error("an empty profile must fold to zero shares")
		}
	}
}

//go:noinline
func spinForProfile(d time.Duration) int {
	x := 0
	for t0 := time.Now(); time.Since(t0) < d; {
		for i := 0; i < 1000; i++ {
			x += i * i
		}
	}
	return x
}

// TestParseCPUProfile decodes a real runtime/pprof CPU profile.
func TestParseCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	spinForProfile(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var spin, total int64
	for _, s := range samples {
		total += s.Nanos
		if len(s.Stack) > 0 && strings.HasSuffix(s.Stack[0], ".spinForProfile") {
			spin += s.Nanos
		}
	}
	if spin == 0 {
		t.Fatalf("no samples in spinForProfile among %d samples", len(samples))
	}
	if total < int64(100*time.Millisecond) {
		t.Errorf("profile holds %v of CPU, want most of the 300ms spin", time.Duration(total))
	}
	if _, err := parseCPUProfile([]byte{0x1f, 0x8b, 0}); err == nil {
		t.Error("a truncated gzip stream must fail")
	}
	if _, err := parseCPUProfile([]byte{0x0a, 0x05, 0x01}); err == nil {
		t.Error("a truncated message must fail")
	}
}

// TestShareCheckGap pins the agreement measure: the gap is relative to
// the larger share, so it scales with small layers, and a comparison in
// which neither side did any work fails rather than passing vacuously.
func TestShareCheckGap(t *testing.T) {
	for _, tc := range []struct {
		traced, profile, want float64
	}{
		{0.40, 0.50, 0.2},
		{0.50, 0.40, 0.2},
		{0.015, 0.002, 0.8666666666666667},
		{0.3, 0.3, 0},
		{0, 0.1, 1},
		{0, 0, 1},
	} {
		got := shareCheck{Traced: tc.traced, Profile: tc.profile}.gap()
		if math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("gap(%v, %v) = %v, want %v", tc.traced, tc.profile, got, tc.want)
		}
	}
	if (shareCheck{Traced: 0.015, Profile: 0.002}).gap() <= agreementTolerance {
		t.Errorf("a sevenfold difference passes the tolerance %v", agreementTolerance)
	}
}
