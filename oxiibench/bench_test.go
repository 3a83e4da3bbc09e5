package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"parblockchain/internal/ordering"
	"parblockchain/internal/oxii"
)

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = make(map[string]string), make(map[string]string)
	for _, m := range b.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// TestShortRunsEmitEveryMetric makes a short run of every workload in both
// modes and checks that each passes the gate and reports exactly the
// metrics BENCHMARK.json declares for its mode, with their units.
func TestShortRunsEmitEveryMetric(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, sp := range specs {
		for _, trace := range []bool{false, true} {
			want := endToEnd
			if trace {
				want = perLayer
			}
			res, _, err := run(options{
				spec: sp, seed: 7, window: 3 * time.Second, warmup: 500 * time.Millisecond,
				trace: trace, parts: 1, setupReps: 2, drain: 20 * time.Second,
				replayTxns: 2 * sp.BlockTxns,
			})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", sp.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", sp.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			for name, unit := range want {
				m, ok := res.Metrics[name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", sp.Name, trace, name)
				} else if m.Unit != unit {
					t.Errorf("%s trace=%v: metric %s has unit %q, BENCHMARK.json says %q", sp.Name, trace, name, m.Unit, unit)
				}
			}
			for name := range res.Metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s trace=%v: metric %s is not declared", sp.Name, trace, name)
				}
			}
		}
	}
}

// TestDeniedClientFailsGate runs a deployment whose ACL denies the only
// client: nothing can commit, and the gate must say so.
func TestDeniedClientFailsGate(t *testing.T) {
	sp, err := specByName("signed")
	if err != nil {
		t.Fatal(err)
	}
	d, err := newDeployment(sp, 1, false, func(cfg *oxii.Config) {
		cfg.ACL = ordering.NewAccessControl() // allows nobody
	})
	if err != nil {
		t.Fatal(err)
	}
	d.start()
	w := d.measure(0, time.Second, 1)
	d.drain(time.Second)
	d.summarize(w)
	err = d.gate(w)
	d.close()
	if err == nil || !strings.Contains(err.Error(), "no transaction committed") {
		t.Fatalf("gate error = %v, want one about no commits", err)
	}
	if w.attempted == 0 || w.failed != w.attempted {
		t.Errorf("attempted=%d failed=%d, want every attempt failed", w.attempted, w.failed)
	}
}

// TestResultLine checks the command's output contract: the last line of
// standard output is one JSON object with exactly the keys correct,
// attempted, failed and metrics.
func TestResultLine(t *testing.T) {
	var out, errOut bytes.Buffer
	code := benchMain([]string{"--workload", "contended", "--seed", "3", "--seconds", "2", "--trace", "0"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	if len(last) != 4 || last["correct"] == nil || last["attempted"] == nil || last["failed"] == nil || last["metrics"] == nil {
		t.Errorf("last line keys = %v", last)
	}
	if code := benchMain([]string{"--workload", "nonsense"}, &out, &errOut); code == 0 {
		t.Error("unknown workload exited 0")
	}
}
