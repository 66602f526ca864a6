package proto

import (
	"testing"

	"cliffedge/internal/region"
)

type fakePayload struct{}

func (fakePayload) WireSize() int { return 1 }
func (fakePayload) Kind() string  { return "fake" }

func TestEffectsMerge(t *testing.T) {
	var a Effects
	a.Monitor = []int32{0}
	b := Effects{
		Monitor:  []int32{1},
		Sends:    []Send{{To: []int32{2}, Payload: fakePayload{}}},
		Decision: &Decision{Value: "v"},
		Resets:   2,
	}
	a.Merge(b)
	if len(a.Monitor) != 2 || len(a.Sends) != 1 || a.Decision == nil || a.Resets != 2 {
		t.Errorf("merge lost effects: %+v", a)
	}
}

func TestEffectsMergeKeepsEarlierDecisionWhenOtherNil(t *testing.T) {
	d := &Decision{Value: "v"}
	a := Effects{Decision: d}
	a.Merge(Effects{})
	if a.Decision != d {
		t.Error("merge with empty effects dropped the decision")
	}
}

func TestIsZero(t *testing.T) {
	var e Effects
	if !e.IsZero() {
		t.Error("zero effects should be zero")
	}
	e.Resets = 1
	if e.IsZero() {
		t.Error("resets count as effects")
	}
	var p Effects
	p.Proposed = []region.Region{region.Empty}
	if p.IsZero() {
		t.Error("proposals count as effects")
	}
}
