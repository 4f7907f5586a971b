package obs

import (
	"testing"

	"repro/internal/ids"
)

var testQID = ids.ID{Hi: 0x0123456789abcdef, Lo: 0xfedcba9876543210}

// TestEmitUntracedAllocFree pins zero-cost tracing when it is off: an
// event that carries a query id allocates nothing unless a tracer records
// it, because the label is formatted at record time.
func TestEmitUntracedAllocFree(t *testing.T) {
	for name, o := range map[string]*Obs{"nil": nil, "metrics-only": New()} {
		allocs := testing.AllocsPerRun(100, func() {
			o.Emit(Event{Kind: KindInject, QID: testQID, EP: 1})
			o.EmitSpan(1, Event{Kind: KindSubmit, QID: testQID, EP: 1})
			o.EmitSpanDetail(1, Event{Kind: KindRouteDeliver, QID: testQID, EP: 1})
		})
		if allocs != 0 {
			t.Errorf("%s: untraced emits allocated %.1f objects per run, want 0", name, allocs)
		}
	}
}

// TestRecordFormatsQueryLabel checks that a recorded event's Query equals
// QID.Short(), and that an explicit Query or a zero QID is left alone.
func TestRecordFormatsQueryLabel(t *testing.T) {
	o := New()
	sink := NewRingSink(8)
	o.SetTracer(NewTracer(sink))
	o.Tracer().Verbose = true
	o.Emit(Event{Kind: KindInject, QID: testQID})
	o.EmitSpan(0, Event{Kind: KindSubmit, QID: testQID})
	o.EmitSpanDetail(0, Event{Kind: KindRouteDeliver, QID: testQID})
	o.Emit(Event{Kind: KindPredict, Query: "explicit", QID: testQID})
	o.Emit(Event{Kind: KindJoin})
	evs := sink.Events()
	want := []string{testQID.Short(), testQID.Short(), testQID.Short(), "explicit", ""}
	if len(evs) != len(want) {
		t.Fatalf("recorded %d events, want %d", len(evs), len(want))
	}
	for i, ev := range evs {
		if ev.Query != want[i] {
			t.Errorf("event %d (%s): Query = %q, want %q", i, ev.Kind, ev.Query, want[i])
		}
	}
	if want[0] != "01234567" {
		t.Fatalf("QID.Short() = %q, want 01234567", want[0])
	}
}
