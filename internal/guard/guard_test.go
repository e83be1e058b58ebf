package guard

import (
	"errors"
	"strings"
	"testing"
)

func TestValidationErrorAggregation(t *testing.T) {
	v := &ValidationError{}
	if v.Err() != nil {
		t.Fatal("empty ValidationError is not nil")
	}
	v.Addf("NumSMs", 0, "must be positive")
	if msg := v.Err().Error(); !strings.Contains(msg, "NumSMs = 0") || !strings.Contains(msg, "must be positive") {
		t.Fatalf("single-field message: %q", msg)
	}
	v.Addf("NumBanks", 7, "must be a power of two")
	msg := v.Err().Error()
	if !strings.Contains(msg, "2 problems") || !strings.Contains(msg, "NumBanks = 7") {
		t.Fatalf("multi-field message: %q", msg)
	}
	var ve *ValidationError
	if !errors.As(v.Err(), &ve) || len(ve.Fields) != 2 {
		t.Fatal("errors.As round trip failed")
	}
}

func TestInvariantfPanicsTyped(t *testing.T) {
	defer func() {
		r := recover()
		iv, ok := r.(InvariantViolation)
		if !ok {
			t.Fatalf("recovered %T, want InvariantViolation", r)
		}
		if !strings.Contains(iv.Error(), "bank 3 overfull") {
			t.Fatalf("message: %q", iv.Error())
		}
	}()
	Invariantf("bank %d overfull", 3)
}

func TestRecoveredCapturesContext(t *testing.T) {
	re := Recovered("boom", "abc123def456", PhaseRun, 777)
	if re.SpecHash != "abc123def456" || re.Phase != PhaseRun || re.Cycle != 777 {
		t.Fatalf("context lost: %+v", re)
	}
	if re.Stack == "" {
		t.Fatal("no stack captured")
	}
	msg := re.Error()
	for _, want := range []string{"panic", "run", "777", "boom", "abc123def456"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("message %q missing %q", msg, want)
		}
	}
}

func TestStallErrorMessages(t *testing.T) {
	dump := StallDump{
		Cycle: 500_000,
		SMs: []SMState{
			{ID: 0, LiveWarps: 3, Blocked: 2, ReplayQueue: 1, NextWakeup: Never},
			{ID: 1}, // retired: elided from the rendering
		},
		Channels: []ChannelState{{
			Channel: 0, ReadQ: 4, Draining: true,
			Banks: []BankState{{Bank: 2, QueuedTxns: 3, OpenRow: 17, SchedRow: 17}},
		}},
		XbarRespWake: 42,
	}
	if dump.LiveWarps() != 3 || dump.BlockedWarps() != 2 {
		t.Fatalf("totals: live=%d blocked=%d", dump.LiveWarps(), dump.BlockedWarps())
	}
	cases := map[string]string{
		StallNoProgress:  "no request retired",
		StallCycleBudget: "cycle budget exhausted",
		StallDeadline:    "deadline exceeded",
		StallStopped:     "stopped",
	}
	for kind, want := range cases {
		e := &StallError{Kind: kind, Cycle: 500_000, Budget: 1_000_000, Dump: dump}
		if !strings.Contains(e.Error(), want) {
			t.Fatalf("%s: message %q missing %q", kind, e.Error(), want)
		}
	}
	s := dump.String()
	for _, want := range []string{"stall dump", "sm0", "ch0", "bank2", "never"} {
		if !strings.Contains(s, want) {
			t.Fatalf("dump rendering missing %q:\n%s", want, s)
		}
	}
	if strings.Contains(s, "sm1 ") {
		t.Fatalf("fully idle SM not elided:\n%s", s)
	}
}
