package memreq

import (
	"strings"
	"testing"
)

func TestKindString(t *testing.T) {
	if Read.String() != "read" || Write.String() != "write" {
		t.Fatalf("kind strings: %q %q", Read, Write)
	}
}

func TestGroupIDValidity(t *testing.T) {
	if (GroupID{}).Valid() {
		t.Fatal("zero group valid")
	}
	if (GroupID{SM: 3, Warp: 4}).Valid() {
		t.Fatal("load==0 group valid (reserved for ungrouped traffic)")
	}
	g := GroupID{SM: 3, Warp: 4, Load: 1}
	if !g.Valid() {
		t.Fatal("real group invalid")
	}
	if got := g.String(); got != "sm3.w4.ld1" {
		t.Fatalf("group string %q", got)
	}
	if got := (GroupID{}).String(); got != "ungrouped" {
		t.Fatalf("zero group string %q", got)
	}
}

func TestRequestString(t *testing.T) {
	r := &Request{
		Kind: Read, Addr: 0x1f80,
		Group:   GroupID{SM: 1, Warp: 2, Load: 3},
		Channel: 4, Bank: 5, Row: 6, Col: 7,
	}
	s := r.String()
	for _, want := range []string{"read", "0x1f80", "ch4", "b5", "r6", "c7", "sm1.w2.ld3"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q missing %q", s, want)
		}
	}
}

func TestWarpSlot(t *testing.T) {
	for _, c := range []struct {
		id   GroupID
		want int
	}{
		{GroupID{SM: 0, Warp: 0, Load: 1}, 0},
		{GroupID{SM: 1, Warp: 2, Load: 1}, 6},
		{GroupID{SM: 2, Warp: 3, Load: 1}, 11},
		{GroupID{SM: 3, Warp: 0, Load: 1}, 12}, // SM beyond the table
		{GroupID{SM: 0, Warp: 4, Load: 1}, 12}, // warp beyond the table
		{GroupID{SM: 0xffff, Warp: 1, Load: 9}, 12},
	} {
		if got := c.id.WarpSlot(3, 4); got != c.want {
			t.Errorf("%v.WarpSlot(3, 4) = %d, want %d", c.id, got, c.want)
		}
	}
}
