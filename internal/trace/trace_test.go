package trace

import (
	"strings"
	"sync"
	"testing"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindCrash: "crash", KindDetect: "detect", KindSend: "send",
		KindDeliver: "deliver", KindDrop: "drop", KindPropose: "propose",
		KindReject: "reject", KindReset: "reset", KindDecide: "decide",
	}
	for k, want := range cases {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), want)
		}
	}
	if !strings.Contains(Kind(42).String(), "42") {
		t.Error("unknown kind should render its number")
	}
}

func TestLogAppendAssignsSequence(t *testing.T) {
	var l Log
	a := l.Append(Event{Kind: KindCrash, Node: "x"})
	b := l.Append(Event{Kind: KindDetect, Node: "y"})
	if a.Seq != 0 || b.Seq != 1 {
		t.Errorf("sequence numbers %d, %d; want 0, 1", a.Seq, b.Seq)
	}
	if n := len(l.Events()); n != 2 {
		t.Errorf("len(Events) = %d", n)
	}
}

func TestLogEventsSnapshot(t *testing.T) {
	var l Log
	l.Append(Event{Kind: KindCrash, Node: "x"})
	snap := l.Events()
	l.Append(Event{Kind: KindDecide, Node: "y"})
	if len(snap) != 1 {
		t.Error("Events must snapshot, not alias")
	}
}

func TestLogConcurrentAppend(t *testing.T) {
	var l Log
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				l.Append(Event{Kind: KindSend, Node: "n"})
			}
		}()
	}
	wg.Wait()
	events := l.Events()
	if len(events) != 800 {
		t.Fatalf("lost events: %d", len(events))
	}
	seen := make(map[int]bool)
	for _, e := range events {
		if seen[e.Seq] {
			t.Fatalf("duplicate sequence %d", e.Seq)
		}
		seen[e.Seq] = true
	}
}

func TestSummarize(t *testing.T) {
	events := []Event{
		{Kind: KindCrash, Node: "x", Time: 5},
		{Kind: KindDetect, Node: "a", Peer: "x", Time: 7},
		{Kind: KindPropose, Node: "a", View: "x", Time: 8},
		{Kind: KindSend, Node: "a", Peer: "b", Bytes: 100, Round: 1, Time: 8},
		{Kind: KindDeliver, Node: "b", Peer: "a", Bytes: 100, Round: 1, Time: 12},
		{Kind: KindSend, Node: "b", Peer: "x", Bytes: 50, Round: 2, Time: 13},
		{Kind: KindDrop, Node: "x", Peer: "b", Time: 15},
		{Kind: KindReject, Node: "b", View: "y", Time: 16},
		{Kind: KindReset, Node: "b", Time: 17},
		{Kind: KindDecide, Node: "a", View: "x", Value: "v", Time: 20},
	}
	s := Summarize(events)
	if s.Messages != 2 || s.Bytes != 150 || s.Deliveries != 1 || s.Drops != 1 {
		t.Errorf("message counters wrong: %+v", s)
	}
	if s.Crashes != 1 || s.Detections != 1 || s.Proposals != 1 ||
		s.Rejections != 1 || s.Resets != 1 || s.Decisions != 1 {
		t.Errorf("event counters wrong: %+v", s)
	}
	if s.MaxRound != 2 || s.EndTime != 20 || s.DecideTime != 20 {
		t.Errorf("round/time counters wrong: %+v", s)
	}
	// Participants: a and b sent/received; x crashed so it is excluded.
	if s.Participants != 2 {
		t.Errorf("Participants = %d, want 2", s.Participants)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s != (Stats{}) {
		t.Errorf("empty trace should be zero stats: %+v", s)
	}
}

func TestDecisionsAndByNode(t *testing.T) {
	events := []Event{
		{Kind: KindSend, Node: "a"},
		{Kind: KindDecide, Node: "a", View: "x"},
		{Kind: KindDecide, Node: "b", View: "x"},
	}
	ds := Decisions(events)
	if len(ds) != 2 || ds[0].Node != "a" || ds[1].Node != "b" {
		t.Errorf("Decisions = %v", ds)
	}
}

func TestEventString(t *testing.T) {
	e := Event{Time: 5, Seq: 1, Kind: KindSend, Node: "a", Peer: "b",
		View: "x", Round: 2, Bytes: 10}
	s := e.String()
	for _, frag := range []string{"send", "a", "peer=b", "view={x}", "r=2", "b=10"} {
		if !strings.Contains(s, frag) {
			t.Errorf("Event.String() = %q missing %q", s, frag)
		}
	}
	d := Event{Kind: KindDecide, Node: "a", Value: "plan"}
	if !strings.Contains(d.String(), `val="plan"`) {
		t.Errorf("decide string: %q", d.String())
	}
}
