package runreport

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestFaultModelTableWithoutCampaigns: a discovery whose oracles emit no
// campaign events prints "not recorded" in the per-model campaign
// columns instead of zeros, and its JSON keeps the fields as they are.
func TestFaultModelTableWithoutCampaigns(t *testing.T) {
	log := strings.Join([]string{
		`{"event":"run_started","fields":{"binary":"explorefault","cipher":"gift64"}}`,
		`{"event":"episode","fields":{"episode":1,"bits":3,"t":5.5,"leaky":true,"fault_model":"xor"}}`,
		`{"event":"episode","fields":{"episode":2,"bits":1,"t":1.5,"leaky":false,"fault_model":"xor"}}`,
	}, "\n") + "\n"
	rep, err := Analyze(strings.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.FaultModels) != 1 || rep.FaultModels[0].Episodes != 2 {
		t.Fatalf("fault models = %+v, want one xor row of 2 episodes", rep.FaultModels)
	}
	var md bytes.Buffer
	WriteMarkdown(&md, rep)
	var row string
	for _, line := range strings.Split(md.String(), "\n") {
		if strings.HasPrefix(line, "| xor ") {
			row = line
		}
	}
	if strings.Count(row, "not recorded") != 3 || strings.Contains(row, "0.00") {
		t.Errorf("per fault model row %q, want campaigns, mean ms and max ms not recorded\n%s", row, md.String())
	}
	js, err := json.Marshal(rep.FaultModels[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"campaigns":0`, `"campaign_mean_ms":0`, `"campaign_max_ms":0`} {
		if !bytes.Contains(js, []byte(want)) {
			t.Errorf("JSON %s lacks %s", js, want)
		}
	}
}
