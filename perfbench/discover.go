package main

import (
	"context"
	"encoding/hex"
	"fmt"
	"strings"
	"time"

	explorefault "repro"
	"repro/internal/obs"
	"repro/internal/obs/trace"
)

// discoverEpisodes is the training budget of one Discover call: 60 PPO
// updates of 8 envs, the budget of the CPU profile the workload was
// chosen by (the PPO update 78% of CPU, the oracle cache 0 hits in 488
// evaluations). On two cores a call takes about 15 s, of which harvest
// takes about 1 s, so the learner rather than harvest sets discover_s.
// The default budget of 5000 episodes is ten times larger, too long for
// a run that must also repeat a call for its checks.
const discoverEpisodes = 480

// discoverWorkload runs Discover on gift64 round 25 with the default 8
// envs and 512 samples and harvest on: the paper's training-rate
// scenario, where the PPO learner rather than the cipher kernels takes
// most of the CPU. Each call of a phase trains a configuration of its
// own, derived from the seed, so a phase averages over its training
// runs; every phase runs the same sequence, so the traced phase repeats
// the plain phase's configurations and must reproduce its results
// exactly.
type discoverWorkload struct {
	seed uint64
	// first holds each configuration's first result fingerprint.
	first map[int]string
	// calls counts Discover calls; mismatched lists the results that
	// differ from their configuration's first result.
	calls      int
	mismatched []string
}

func newDiscover(_ string, seed uint64) workload {
	return &discoverWorkload{seed: seed, first: map[int]string{}}
}

// config returns the k-th configuration of the run.
func (w *discoverWorkload) config(k int) explorefault.DiscoverConfig {
	return explorefault.DiscoverConfig{
		Cipher:   "gift64",
		Round:    25,
		Episodes: discoverEpisodes,
		NumEnvs:  8,
		Samples:  512,
		Seed:     w.seed<<8 + uint64(k),
	}
}

// setup runs one PPO batch of the first configuration without harvest:
// building the session (8 keyed oracles, the agent) and its first
// update, the work a caller waits for before training proceeds.
func (w *discoverWorkload) setup(string, *obs.Registry) error {
	cfg := w.config(0)
	cfg.Episodes = cfg.NumEnvs
	cfg.SkipHarvest = true
	_, err := explorefault.DiscoverContext(context.Background(), cfg)
	return err
}

func (w *discoverWorkload) release() {}

func (w *discoverWorkload) run(ctx context.Context, p *phase, deadline time.Time) error {
	start := time.Now()
	for k := 0; ; k++ {
		cfg := w.config(k)
		cfg.Metrics = p.metrics
		// Training ends at the last PPO update, which is the last
		// Progress call; the readout and harvest follow.
		var trainCPU time.Duration
		cpu0 := processCPU()
		cfg.Progress = func(explorefault.Progress) { trainCPU = processCPU() - cpu0 }
		t0 := time.Now()
		res, err := explorefault.DiscoverContext(ctx, cfg)
		if err != nil {
			return fmt.Errorf("discover seed %d: %w", cfg.Seed, err)
		}
		total := time.Since(t0)
		p.latMS = append(p.latMS, float64(total)/1e6)
		p.units += float64(res.Episodes)
		p.unitTime += res.Duration
		p.unitCPU += trainCPU
		p.add("cache_hits", float64(res.Cache.Hits))
		p.add("cache_misses", float64(res.Cache.Misses))
		p.add("post_training_s", (total - res.Duration).Seconds())
		w.record(k, p.name, discoverFingerprint(res))
		// A call takes a good share of the phase: start another only
		// if at least half of it fits, so the phase lasts about as long
		// as asked.
		mean := time.Since(start) / time.Duration(k+1)
		if time.Until(deadline) < mean/2 {
			return nil
		}
	}
}

// record compares a result with the first result of its configuration.
func (w *discoverWorkload) record(k int, phaseName, fp string) {
	w.calls++
	ref, ok := w.first[k]
	if !ok {
		w.first[k] = fp
		return
	}
	if fp != ref {
		w.mismatched = append(w.mismatched, fmt.Sprintf("config %d (%s phase): result differs from its first run", k, phaseName))
	}
}

// verify reruns the first configuration with a single campaign worker
// (the timed runs use GOMAXPROCS workers) and compares it, then scores
// every repeat recorded during the phases; a configuration's first call
// has nothing to be compared with and is not counted.
func (w *discoverWorkload) verify(ctx context.Context, c *checks) error {
	cfg := w.config(0)
	cfg.Workers = 1
	res, err := explorefault.DiscoverContext(ctx, cfg)
	if err != nil {
		c.op(false, "discover workers=1: %v", err)
	} else {
		fp := discoverFingerprint(res)
		c.op(fp == w.first[0], "discover workers=1 result differs from workers=GOMAXPROCS")
		c.op(len(res.Models) > 0, "discover harvested no verified models")
	}
	c.tally(w.calls-len(w.first), w.mismatched)
	return nil
}

// discoverFingerprint renders the deterministic part of a discovery
// result: the converged pattern, its t statistic and fault model, and
// the harvested model set with each model's pattern and t.
func discoverFingerprint(res *explorefault.DiscoveryResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%x|%v|%v|%s|%d", res.Converged.Bytes(), res.ConvergedT, res.ConvergedLeaky, res.ConvergedModel, res.Episodes)
	for _, m := range res.Models {
		fmt.Fprintf(&b, "|%s:%s:%s:%v", m.String(), hex.EncodeToString(m.Pattern.Bytes()), m.Fault, m.T)
	}
	return b.String()
}

func (w *discoverWorkload) layerMetrics(p *phase, m map[string]float64) {
	c := p.snap.Counters
	m["ppo.updates"] = float64(c["explore.ppo_updates_total"])
	m["rl.collect_s"] = (p.totals[trace.SpanSession].Incl - p.totals[trace.SpanPPOUpdate].Incl) / 1e6
	m["explore.oracle_evals"] = float64(c["oracle.evaluations_total"])
	m["explore.oracle_eval_self_s"] = p.totals[trace.SpanOracleEval].Self / 1e6
	if n := p.extra["cache_hits"] + p.extra["cache_misses"]; n > 0 {
		m["explore.cache_hit_ratio"] = p.extra["cache_hits"] / n
	}
	m["abstraction.harvest_s"] = p.totals[trace.SpanHarvest].Incl / 1e6
	m["abstraction.verifications"] = float64(countUnder(p.spans, trace.SpanAssess, trace.SpanHarvest))
	engineMetrics(p, m)
}

// engineMetrics fills the evaluation-engine and campaign counters every
// workload that assesses patterns shares.
func engineMetrics(p *phase, m map[string]float64) {
	m["fault.traces"] = float64(p.snap.Counters["campaign.traces_total"])
	m["fault.collect_self_s"] = p.totals[trace.SpanCollect].Self / 1e6
	m["evaluate.assessments"] = float64(p.snap.Counters["evaluate.assessments_total"])
	m["evaluate.worker_utilization"] = p.snap.Gauges["evaluate.worker_utilization"]
}

// agreement compares the learner: PPO updates run on one goroutine
// while no rollout is in flight, so their span time is CPU time and
// matches the profile's nn and rl packages. Rollout collection runs 8
// envs with 2 campaign workers each on GOMAXPROCS cores; its spans
// include run-queue waits and are not compared.
func (w *discoverWorkload) agreement(p *phase) []shareCheck {
	return []shareCheck{{
		Layer:   "learner (ppo_update vs nn+rl)",
		Traced:  p.selfShare(trace.SpanPPOUpdate),
		Profile: p.cpuShare("nn", "rl"),
	}}
}

func (w *discoverWorkload) native(p *phase) map[string]float64 {
	return map[string]float64{
		"episodes_per_min":   p.unitsPerSec() * 60,
		"discover_s":         median(p.latMS) / 1e3,
		"discover_calls":     float64(len(p.latMS)),
		"cpu_ms_per_episode": p.cpuPerUnit().Seconds() * 1e3,
		"post_training_s":    p.extra["post_training_s"] / float64(len(p.latMS)),
		"cache_hits":         p.extra["cache_hits"],
		"cache_misses":       p.extra["cache_misses"],
	}
}
