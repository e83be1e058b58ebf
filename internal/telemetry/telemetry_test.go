package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"dramlat/internal/memreq"
)

func g(load uint32) memreq.GroupID { return memreq.GroupID{SM: 1, Warp: 2, Load: load} }

func req(id uint64, grp memreq.GroupID, ch, bank, row int) *memreq.Request {
	return &memreq.Request{ID: id, Group: grp, Channel: ch, Bank: bank, Row: row}
}

func TestOptionsEnabled(t *testing.T) {
	if (Options{}).Enabled() {
		t.Fatal("zero options enabled")
	}
	if !(Options{Events: true}).Enabled() || !(Options{SampleEvery: 10}).Enabled() {
		t.Fatal("non-zero options disabled")
	}
	if New(Options{}) != nil {
		t.Fatal("New of zero options not nil")
	}
	tel := New(Options{Events: true, EventCap: 4})
	if tel == nil || tel.Tracer == nil || tel.Sampler != nil {
		t.Fatalf("New(events): %+v", tel)
	}
	tel = New(Options{SampleEvery: 100})
	if tel == nil || tel.Tracer != nil || tel.Sampler == nil || tel.Sampler.Every != 100 {
		t.Fatalf("New(sampler): %+v", tel)
	}
}

func TestKindStringRoundTrip(t *testing.T) {
	for k := Kind(0); k < kindCount; k++ {
		name := k.String()
		if strings.HasPrefix(name, "kind(") {
			t.Fatalf("kind %d has no name", k)
		}
		back, err := ParseKind(name)
		if err != nil || back != k {
			t.Fatalf("roundtrip %s: %v, %v", name, back, err)
		}
	}
	if _, err := ParseKind("bogus"); err == nil {
		t.Fatal("bogus kind parsed")
	}
}

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	tr.LoadIssue(1, g(1), 2, 2)
	tr.Done(1, 0, g(1), 1)
	tr.DrainBegin(1, 0, 5)
	if tr.Len() != 0 || tr.Dropped() != 0 || tr.Events() != nil {
		t.Fatal("nil tracer accumulated state")
	}
}

func TestTracerRingWrap(t *testing.T) {
	tr := NewTracer(3)
	for i := int64(1); i <= 5; i++ {
		tr.LoadUnblock(i, g(uint32(i)))
	}
	if tr.Len() != 3 {
		t.Fatalf("len %d", tr.Len())
	}
	if tr.Dropped() != 2 {
		t.Fatalf("dropped %d", tr.Dropped())
	}
	evs := tr.Events()
	// Oldest two overwritten: ticks 3, 4, 5 remain, in recording order.
	for i, want := range []int64{3, 4, 5} {
		if evs[i].Tick != want {
			t.Fatalf("event %d tick %d, want %d", i, evs[i].Tick, want)
		}
	}
}

func TestSortEventsStable(t *testing.T) {
	evs := []Event{
		{Tick: 10, Kind: EvDone, Req: 1}, // future-stamped completion recorded first
		{Tick: 5, Kind: EvEnqRead, Req: 2},
		{Tick: 5, Kind: EvDeqRead, Req: 2}, // same tick: must stay after its enqueue
	}
	SortEvents(evs)
	if evs[0].Kind != EvEnqRead || evs[1].Kind != EvDeqRead || evs[2].Kind != EvDone {
		t.Fatalf("sorted order: %+v", evs)
	}
}

// stream builds a small, fully legal event stream: two requests of one
// warp-group on different channels, each ACT->RD->RD, plus a MERB streak
// and a write drain.
func stream(tr *Tracer) {
	r1 := req(1, g(1), 0, 2, 7)
	r2 := req(2, g(1), 1, 3, 9)
	tr.LoadIssue(10, g(1), 2, 2)
	tr.EnqueueRead(20, 0, r1, 1)
	tr.EnqueueRead(21, 1, r2, 1)
	tr.DequeueRead(25, 0, r1, 0)
	tr.DequeueRead(26, 1, r2, 0)
	tr.Command(30, EvACT, 0, 2, 7, nil)
	tr.Command(31, EvACT, 1, 3, 9, nil)
	tr.Command(40, EvRD, 0, 2, 7, r1)
	tr.Command(44, EvRD, 0, 2, 7, r1)
	tr.Done(48, 0, g(1), 1) // future timestamp emitted at command time
	tr.MERBStreakBegin(50, 1, 3, 9)
	tr.MERBStreakEnd(60, 1, 3)
	tr.Command(62, EvRD, 1, 3, 9, r2)
	tr.Command(66, EvRD, 1, 3, 9, r2)
	tr.Done(70, 1, g(1), 2)
	tr.DrainBegin(80, 0, 32)
	w := req(3, memreq.GroupID{}, 0, 2, 7)
	tr.EnqueueWrite(81, 0, w, 1)
	tr.DequeueWrite(82, 0, w, 0)
	tr.Command(83, EvWR, 0, 2, 7, w)
	tr.DrainEnd(90, 0, 16)
	tr.Command(95, EvPRE, 0, 2, -1, nil)
	tr.Command(96, EvPRE, 1, 3, -1, nil)
	tr.LoadUnblock(99, g(1))
}

func TestValidateCleanStream(t *testing.T) {
	tr := NewTracer(64)
	stream(tr)
	evs := tr.Events()
	SortEvents(evs)
	if err := Validate(evs); err != nil {
		t.Fatalf("clean stream rejected: %v", err)
	}
}

func TestValidateCatchesViolations(t *testing.T) {
	cases := map[string][]Event{
		"backwards time": {
			{Tick: 10, Kind: EvLoadIssue, SM: 1, Load: 1},
			{Tick: 5, Kind: EvLoadUnblock, SM: 1, Load: 1},
		},
		"ACT on open bank": {
			{Tick: 1, Kind: EvACT, Channel: 0, Bank: 0, Row: 1},
			{Tick: 2, Kind: EvACT, Channel: 0, Bank: 0, Row: 2},
		},
		"PRE on closed bank": {
			{Tick: 1, Kind: EvPRE, Channel: 0, Bank: 0},
		},
		"RD on closed bank": {
			{Tick: 1, Kind: EvRD, Channel: 0, Bank: 0, Row: 1},
		},
		"RD to wrong row": {
			{Tick: 1, Kind: EvACT, Channel: 0, Bank: 0, Row: 1},
			{Tick: 2, Kind: EvRD, Channel: 0, Bank: 0, Row: 2},
		},
		"dequeue without enqueue": {
			{Tick: 1, Kind: EvDeqRead, Req: 7},
		},
		"double enqueue": {
			{Tick: 1, Kind: EvEnqRead, Req: 7},
			{Tick: 2, Kind: EvEnqRead, Req: 7},
		},
		"done before dispatch": {
			{Tick: 1, Kind: EvEnqRead, Req: 7},
			{Tick: 2, Kind: EvDone, Req: 7},
		},
		"nested MERB streak": {
			{Tick: 1, Kind: EvMERBBegin, Channel: 0, Bank: 0, Row: 1},
			{Tick: 2, Kind: EvMERBBegin, Channel: 0, Bank: 0, Row: 1},
			{Tick: 3, Kind: EvMERBEnd, Channel: 0, Bank: 0},
			{Tick: 4, Kind: EvMERBEnd, Channel: 0, Bank: 0},
		},
		"drain left open": {
			{Tick: 1, Kind: EvDrainBegin, Channel: 0, A: 32},
		},
		"unblock without issue": {
			{Tick: 1, Kind: EvLoadUnblock, SM: 1, Load: 1},
		},
		"load never unblocked": {
			{Tick: 1, Kind: EvLoadIssue, SM: 1, Load: 1},
		},
	}
	for name, evs := range cases {
		if err := Validate(evs); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	tr := NewTracer(64)
	stream(tr)
	evs := tr.Events()
	SortEvents(evs)

	var buf bytes.Buffer
	if err := WriteJSONL(&buf, evs); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(evs) {
		t.Fatalf("roundtrip %d -> %d events", len(evs), len(back))
	}
	for i := range evs {
		if back[i] != evs[i] {
			t.Fatalf("event %d: %+v != %+v", i, back[i], evs[i])
		}
	}
}

func TestChromeTraceShape(t *testing.T) {
	tr := NewTracer(64)
	stream(tr)
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tr.Events()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Ts   int64  `json:"ts"`
			Pid  int    `json:"pid"`
			Tid  int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("empty trace")
	}
	// Timestamps monotone among non-metadata events, and B/E balanced per
	// (pid, tid, name).
	last := int64(-1)
	type span struct {
		pid, tid int
		name     string
	}
	depth := map[span]int{}
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "M":
			continue
		case "B":
			depth[span{e.Pid, e.Tid, e.Name}]++
		case "E":
			s := span{e.Pid, e.Tid, e.Name}
			depth[s]--
			if depth[s] < 0 {
				t.Fatalf("E without B for %+v", s)
			}
		}
		if e.Ts < last {
			t.Fatalf("timestamps not monotone: %d after %d", e.Ts, last)
		}
		last = e.Ts
	}
	for s, d := range depth {
		if d != 0 {
			t.Fatalf("unbalanced span %+v: depth %d", s, d)
		}
	}
}

func TestAnalyze(t *testing.T) {
	tr := NewTracer(64)
	stream(tr)
	a := Analyze(tr.Events())

	if len(a.Groups) != 1 {
		t.Fatalf("groups %d", len(a.Groups))
	}
	grp := a.Groups[0]
	if grp.ID != g(1) || grp.Issue != 10 || grp.Unblock != 99 {
		t.Fatalf("group %+v", grp)
	}
	if gap := grp.Gap(); gap != 70-48 {
		t.Fatalf("gap %d", gap)
	}
	if grp.Channels() != 2 || len(grp.Reqs) != 2 {
		t.Fatalf("reqs %d channels %d", len(grp.Reqs), grp.Channels())
	}
	r1 := grp.Reqs[0]
	if r1.Enq != 20 || r1.Deq != 25 || len(r1.Acts) != 1 || r1.Acts[0] != 30 ||
		len(r1.Bursts) != 2 || r1.Done != 48 {
		t.Fatalf("req 1 trace %+v", r1)
	}
	if got := a.DivergenceGap(); got != 22 {
		t.Fatalf("mean gap %v", got)
	}
	if s := a.Stragglers(5); len(s) != 1 || s[0] != grp {
		t.Fatalf("stragglers %+v", s)
	}
	bins := a.GapHistogram()
	if len(bins) != 1 || bins[0].Count != 1 || bins[0].Lo != 0 || bins[0].Hi != 64 {
		t.Fatalf("histogram %+v", bins)
	}
}

func TestSamplerIntervals(t *testing.T) {
	s := &Sampler{Every: 100}
	add := func(tick int64, acts, busy int64, hit, miss int64) {
		s.Channels = append(s.Channels, ChannelSample{
			Tick: tick, Channel: 0, ReadQ: int(tick / 100),
			ACTs: acts, BusyTicks: busy, HitTxns: hit, MissTxns: miss,
		})
	}
	add(100, 10, 50, 6, 2)
	add(200, 25, 150, 12, 2)
	ivs := s.ChannelIntervals()
	if len(ivs) != 1 {
		t.Fatalf("intervals %d", len(ivs))
	}
	iv := ivs[0]
	if iv.Start != 100 || iv.End != 200 || iv.ACTs != 15 {
		t.Fatalf("interval %+v", iv)
	}
	if iv.BusyFrac != 1.0 { // 100 busy ticks over a 100-tick interval
		t.Fatalf("busy frac %v", iv.BusyFrac)
	}
	if iv.RowHitRate != 1.0 { // 6 hits, 0 misses in the delta
		t.Fatalf("hit rate %v", iv.RowHitRate)
	}
	if iv.ReadQ != 2 { // gauge at End
		t.Fatalf("readq gauge %d", iv.ReadQ)
	}

	s.SMs = append(s.SMs,
		SMSample{Tick: 100, SM: 3, Instr: 50, Active: 40, Idle: 60, IdleMem: 30},
		SMSample{Tick: 200, SM: 3, Instr: 90, Active: 70, Idle: 130, IdleMem: 80})
	sms := s.SMIntervals()
	if len(sms) != 1 || sms[0].Instr != 40 || sms[0].IdleMem != 50 {
		t.Fatalf("sm intervals %+v", sms)
	}

	var nilS *Sampler
	if nilS.ChannelIntervals() != nil || nilS.SMIntervals() != nil {
		t.Fatal("nil sampler produced intervals")
	}
}

func TestCSVExports(t *testing.T) {
	s := &Sampler{Every: 10}
	s.Channels = append(s.Channels,
		ChannelSample{Tick: 10, Channel: 0, ACTs: 1},
		ChannelSample{Tick: 20, Channel: 0, ACTs: 3, BusyTicks: 4})
	s.SMs = append(s.SMs,
		SMSample{Tick: 10, SM: 0, Instr: 5},
		SMSample{Tick: 20, SM: 0, Instr: 9})
	var ch, sm bytes.Buffer
	if err := WriteChannelCSV(&ch, s.ChannelIntervals()); err != nil {
		t.Fatal(err)
	}
	if err := WriteSMCSV(&sm, s.SMIntervals()); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(ch.String(), "\n"); lines != 2 {
		t.Fatalf("channel csv lines %d:\n%s", lines, ch.String())
	}
	if !strings.HasPrefix(sm.String(), "start,end,sm,") {
		t.Fatalf("sm csv header:\n%s", sm.String())
	}
}

// BenchmarkTracerEmit measures the cost of one enabled emit (the hot-path
// cost a traced run pays per event site that fires).
func BenchmarkTracerEmit(b *testing.B) {
	tr := NewTracer(1 << 16)
	r := req(1, g(1), 0, 2, 7)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.EnqueueRead(int64(i), 0, r, 1)
	}
}

// BenchmarkTracerDisabled measures the nil-probe cost: the branch every
// instrumentation site pays when tracing is off.
func BenchmarkTracerDisabled(b *testing.B) {
	var tr *Tracer
	r := req(1, g(1), 0, 2, 7)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if tr != nil {
			tr.EnqueueRead(int64(i), 0, r, 1)
		}
	}
}
