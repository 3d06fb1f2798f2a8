package explore

import (
	"bytes"
	"context"
	"encoding/json"
	"sort"
	"testing"

	"repro/internal/obs/trace"
	"repro/internal/prng"
	"repro/internal/rl/ppo"
)

// TestSessionTracesBothUpdateHalves: every PPO update of a traced
// session records exactly two ended ppo_update spans, one per network
// (net=policy, net=value). Both are children of the session span, and
// the two halves of one update sit on different lanes.
func TestSessionTracesBothUpdateHalves(t *testing.T) {
	const envs, episodes = 2, 8
	factory := func(rng *prng.Source) (Oracle, error) {
		return newSubsetOracle(8, 1, 5), nil
	}
	sess, err := NewSession(factory, SessionConfig{
		Seed: 5, NumEnvs: envs, Episodes: episodes,
		Agent: ppo.Config{Hidden: []int{8}, Epochs: 2, MinibatchSize: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New()
	_, ctx := tr.StartRoot(context.Background(), trace.SpanRun)
	if _, err := sess.Run(ctx); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.Export(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TS   float64        `json:"ts"`
			TID  int64          `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	type span struct {
		ts     float64
		lane   int64
		parent any
	}
	var sessionID any
	halves := map[any][]span{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		switch ev.Name {
		case trace.SpanSession:
			sessionID = ev.Args["span_id"]
		case trace.SpanPPOUpdate:
			net := ev.Args["net"]
			halves[net] = append(halves[net], span{ev.TS, ev.TID, ev.Args["parent_id"]})
		}
	}
	if sessionID == nil {
		t.Fatal("no session span recorded")
	}
	const updates = episodes / envs
	if len(halves) != 2 || len(halves["policy"]) != updates || len(halves["value"]) != updates {
		t.Fatalf("ppo_update spans by net: policy %d, value %d, all nets %d; want %d policy and %d value spans",
			len(halves["policy"]), len(halves["value"]), len(halves), updates, updates)
	}
	for _, spans := range halves {
		sort.Slice(spans, func(i, j int) bool { return spans[i].ts < spans[j].ts })
		for _, s := range spans {
			if s.parent != sessionID {
				t.Errorf("ppo_update span parent %v, want the session span %v", s.parent, sessionID)
			}
		}
	}
	for u := range updates {
		if p, v := halves["policy"][u].lane, halves["value"][u].lane; p == v {
			t.Errorf("update %d: policy and value spans share lane %d", u, p)
		}
	}
}
