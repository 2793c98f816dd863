package lbmib

import "testing"

// answers is everything the facade asks its sampler between events.
type answers struct {
	owed                            int // the step the pending sample describes, 0 if none is owed
	observe, due, mayStep, snapshot bool
}

func ask(m *sampler) answers {
	a := answers{observe: m.observe(), due: m.due(), mayStep: m.mayStep(), snapshot: m.snapshot()}
	if m.owed() {
		a.owed = m.last.step
	}
	return a
}

// TestSamplerProtocol drives the sample protocol without a lattice: each
// row is a sampler as New configures it and a script of the events the
// facade reports, with the answers expected after each event. A swept
// or flushed event must hand back the step its sample describes
// (delivered), or nothing.
func TestSamplerProtocol(t *testing.T) {
	type event struct {
		ev        string // "step", "swept", "flushed", "failed" or "flag"
		step      int    // the step a "step" event completes
		delivered int    // the step swept or flushed hands over, 0 for none
		want      answers
	}
	idle := answers{mayStep: true}
	for _, c := range []struct {
		name   string
		m      sampler
		script []event
	}{
		{"sweep, every step", sampler{every: true, sweep: true}, []event{
			{ev: "swept", want: idle},
			{ev: "step", step: 1, want: answers{owed: 1, observe: true, mayStep: true}},
			{ev: "swept", delivered: 1, want: idle},
			{ev: "step", step: 2, want: answers{owed: 2, observe: true, mayStep: true}},
			{ev: "flushed", delivered: 2, want: idle},
			{ev: "swept", want: idle},
			{ev: "step", step: 3, want: answers{owed: 3, observe: true, mayStep: true}},
		}},
		{"no sweep, every step", sampler{every: true}, []event{
			{ev: "step", step: 1, want: answers{owed: 1, due: true, mayStep: true}},
			{ev: "flushed", delivered: 1, want: idle},
			{ev: "step", step: 2, want: answers{owed: 2, due: true, mayStep: true}},
			{ev: "failed", want: idle},
			{ev: "swept", want: idle},
		}},
		{"recorder alone, on its cadence", sampler{sweep: true, ringEvery: 3, snapEvery: 6}, []event{
			{ev: "step", step: 1, want: idle},
			{ev: "step", step: 2, want: idle},
			{ev: "step", step: 3, want: answers{owed: 3, observe: true, mayStep: true}},
			{ev: "swept", delivered: 3, want: idle},
			{ev: "step", step: 4, want: idle},
			{ev: "step", step: 5, want: idle},
			{ev: "step", step: 6, want: answers{owed: 6, observe: true, due: true, mayStep: true, snapshot: true}},
			{ev: "flushed", delivered: 6, want: answers{mayStep: true, snapshot: true}},
			{ev: "step", step: 7, want: idle},
		}},
		{"snapshot off the ring's cadence", sampler{sweep: true, ringEvery: 4, snapEvery: 6}, []event{
			{ev: "step", step: 6, want: answers{mayStep: true, snapshot: true}},
			{ev: "step", step: 8, want: answers{owed: 8, observe: true, mayStep: true}},
		}},
		{"a flag stops the run", sampler{every: true, sweep: true, ringEvery: 2, snapEvery: 2}, []event{
			{ev: "step", step: 1, want: answers{owed: 1, observe: true, mayStep: true}},
			{ev: "swept", delivered: 1, want: idle},
			{ev: "flag", want: answers{}},
			{ev: "step", step: 2, want: answers{}},
			{ev: "flushed", want: answers{}},
		}},
		{"a reader's flag", sampler{every: true, snapEvery: 3}, []event{
			{ev: "step", step: 3, want: answers{owed: 3, due: true, mayStep: true, snapshot: true}},
			{ev: "flushed", delivered: 3, want: answers{mayStep: true, snapshot: true}},
			{ev: "flag", want: answers{}},
		}},
		{"a watchdog that flagged before", sampler{every: true, sweep: true, flagged: true}, []event{
			{ev: "step", step: 1, want: answers{}},
		}},
		{"nothing to sample", sampler{sweep: true}, []event{
			{ev: "step", step: 1, want: idle},
			{ev: "swept", want: idle},
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			m := c.m
			for i, e := range c.script {
				delivered := 0
				switch e.ev {
				case "step":
					m.stepDone(stepTiming{step: e.step})
				case "swept":
					if p, ok := m.swept(); ok {
						delivered = p.step
					}
				case "flushed":
					if m.owed() {
						delivered = m.flushed().step
					}
				case "failed":
					m.digestFailed()
				case "flag":
					m.flag()
				default:
					t.Fatalf("event %d: unknown event %q", i, e.ev)
				}
				if delivered != e.delivered {
					t.Errorf("event %d (%s): delivered step %d, want %d", i, e.ev, delivered, e.delivered)
				}
				if got := ask(&m); got != e.want {
					t.Errorf("event %d (%s %d): %+v, want %+v", i, e.ev, e.step, got, e.want)
				}
			}
		})
	}
}

// TestSamplerRingKeeps: the ring keeps a sample on its cadence, and once
// the watchdog has flagged the sample being delivered, that sample on
// any step; without a recorder it keeps none.
func TestSamplerRingKeeps(t *testing.T) {
	for _, c := range []struct {
		ringEvery int
		flagged   bool
		step      int
		want      bool
	}{
		{0, false, 8, false},
		{0, true, 8, false},
		{1, false, 7, true},
		{2, false, 3, false},
		{2, false, 4, true},
		{2, true, 3, true},
		{8, false, 73, false},
		{8, true, 73, true},
		{8, false, 72, true},
	} {
		m := sampler{every: true, ringEvery: c.ringEvery, flagged: c.flagged}
		if got := m.ringKeeps(c.step); got != c.want {
			t.Errorf("ringEvery %d, flagged %v: ringKeeps(%d) = %v, want %v", c.ringEvery, c.flagged, c.step, got, c.want)
		}
	}
}
