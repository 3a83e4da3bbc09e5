package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestTraceStageDeltas(t *testing.T) {
	tr := NewBlockTracer(4)
	bt := tr.Start(7)
	base := time.Unix(1000, 0)
	// Stage durations 1ms, 2ms, ... 7ms.
	at := base
	bt.MarkAt(MarkDelivered, at)
	for i := 1; i < int(numMarks); i++ {
		at = at.Add(time.Duration(i) * time.Millisecond)
		bt.MarkAt(Mark(i), at)
	}
	tr.Finish(bt)
	snap := tr.StageSnapshot()
	for i, name := range StageNames {
		s := snap[name]
		if s.Count != 1 || s.Sum != int64(i+1)*int64(time.Millisecond) {
			t.Errorf("stage %s: count=%d sum=%d, want 1 observation of %dms", name, s.Count, s.Sum, i+1)
		}
	}
	if total := snap["total"]; total.Sum != 28*int64(time.Millisecond) {
		t.Errorf("total sum = %d, want 28ms", total.Sum)
	}
	recs := tr.Slowest()
	if len(recs) != 1 || recs[0].Height != 7 || recs[0].TotalNanos != 28*int64(time.Millisecond) {
		t.Errorf("slowest = %+v, want height 7 total 28ms", recs)
	}
}

// A block whose seal quorum forms before it enters the window is sealed
// before admission; unset marks (no dispatch on an empty block) inherit
// the previous time. Neither may produce negative stage costs.
func TestTraceOutOfOrderAndUnsetMarks(t *testing.T) {
	tr := NewBlockTracer(4)
	bt := tr.Start(1)
	base := time.Unix(2000, 0)
	bt.MarkAt(MarkDelivered, base)
	bt.MarkAt(MarkSealed, base) // seal at delivery
	bt.MarkAt(MarkAdmitted, base.Add(5*time.Millisecond))
	// Dispatched and Drained never set (empty block).
	bt.MarkAt(MarkFinalized, base.Add(6*time.Millisecond))
	bt.MarkAt(MarkExternalized, base.Add(8*time.Millisecond))
	tr.Finish(bt)
	snap := tr.StageSnapshot()
	for name, s := range snap {
		if s.Sum < 0 {
			t.Errorf("stage %s has negative sum %d", name, s.Sum)
		}
	}
	if s := snap["admission"]; s.Sum != 5*int64(time.Millisecond) {
		t.Errorf("admission sum = %d, want 5ms", s.Sum)
	}
	if s := snap["seal"]; s.Sum != 0 {
		t.Errorf("seal (already satisfied at delivery) sum = %d, want 0", s.Sum)
	}
	if s := snap["total"]; s.Sum != 8*int64(time.Millisecond) {
		t.Errorf("total sum = %d, want 8ms", s.Sum)
	}
}

func TestTraceMarkIdempotent(t *testing.T) {
	tr := NewBlockTracer(1)
	bt := tr.Start(1)
	base := time.Unix(3000, 0)
	bt.MarkAt(MarkDelivered, base)
	bt.MarkAt(MarkDelivered, base.Add(time.Hour)) // loses: first stamp wins
	bt.MarkAt(MarkExternalized, base.Add(time.Second))
	tr.Finish(bt)
	if recs := tr.Slowest(); recs[0].TotalNanos != int64(time.Second) {
		t.Errorf("total = %d, want 1s (first Delivered stamp must win)", recs[0].TotalNanos)
	}
}

func TestTraceNilSafety(t *testing.T) {
	var tr *BlockTracer
	bt := tr.Start(1) // nil tracer -> nil trace
	if bt != nil {
		t.Fatal("nil tracer returned non-nil trace")
	}
	bt.Mark(MarkDelivered) // must not panic
	bt.MarkAt(MarkSealed, time.Now())
	tr.Finish(bt)
	if tr.Slowest() != nil || tr.StageSnapshot() != nil {
		t.Error("nil tracer must report nil aggregates")
	}
}

func TestTraceSlowestRing(t *testing.T) {
	tr := NewBlockTracer(3)
	base := time.Unix(4000, 0)
	durations := []time.Duration{5, 1, 9, 3, 7, 2} // ms
	for i, d := range durations {
		bt := tr.Start(uint64(i))
		bt.MarkAt(MarkDelivered, base)
		bt.MarkAt(MarkExternalized, base.Add(d*time.Millisecond))
		tr.Finish(bt)
	}
	recs := tr.Slowest()
	if len(recs) != 3 {
		t.Fatalf("ring holds %d, want 3", len(recs))
	}
	wantHeights := []uint64{2, 4, 0} // 9ms, 7ms, 5ms
	for i, want := range wantHeights {
		if recs[i].Height != want {
			t.Errorf("slowest[%d] height = %d, want %d (got %+v)", i, recs[i].Height, want, recs)
		}
	}
	// JSON dump round-trips.
	out, err := json.Marshal(recs)
	if err != nil {
		t.Fatal(err)
	}
	var back []TraceRecord
	if err := json.Unmarshal(out, &back); err != nil {
		t.Fatal(err)
	}
	if back[0].Height != 2 || back[0].StageNanos["externalize"] != 9*int64(time.Millisecond) {
		t.Errorf("round-trip lost data: %+v", back[0])
	}
}

func TestTracerRegister(t *testing.T) {
	tr := NewBlockTracer(2)
	bt := tr.Start(1)
	base := time.Unix(5000, 0)
	bt.MarkAt(MarkDelivered, base)
	bt.MarkAt(MarkExternalized, base.Add(2*time.Second))
	tr.Finish(bt)
	reg := NewRegistry()
	tr.Register(reg, "parblockchain_block_stage_seconds", "Per-stage block latency.", Labels{"node": "e1"})
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, stage := range append(StageNames[:], "total") {
		want := `parblockchain_block_stage_seconds_count{node="e1",stage="` + stage + `"} 1`
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	// 2s observed in ns, exposed in seconds: sum must be 2, not 2e9.
	if !strings.Contains(out, `parblockchain_block_stage_seconds_sum{node="e1",stage="total"} 2`+"\n") {
		t.Errorf("total sum not scaled to seconds:\n%s", out)
	}
}
