package serve

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestReadSSEParsesDataLinesOnly(t *testing.T) {
	// A realistic frame mix: comments, ids, event names, and a garbage
	// data line at the end. Only well-formed data payloads come through;
	// the first malformed one ends the stream (a caller that reconnects
	// from its cursor may treat that as "stream over").
	stream := strings.Join([]string{
		": keepalive comment",
		"id: 1",
		"event: result",
		`data: {"seq":1,"type":"result","completed":1,"total":2}`,
		"",
		"id: 2",
		"event: done",
		`data: {"seq":2,"type":"done","completed":2,"total":2}`,
		"",
		"data: {not json",
		`data: {"seq":3,"type":"result"}`,
		"",
	}, "\n")

	var got []Event
	err := ReadSSE(strings.NewReader(stream), func(ev Event) bool {
		got = append(got, ev)
		return true
	})
	if err == nil {
		t.Fatal("the malformed data line was not reported")
	}
	if len(got) != 2 {
		t.Fatalf("parsed %d events, want 2 (stream must end at the malformed line): %+v", len(got), got)
	}
	if got[0].Seq != 1 || got[0].Type != "result" || got[1].Seq != 2 || got[1].Type != "done" {
		t.Fatalf("unexpected events: %+v", got)
	}
}

// TestSSERoundTripLargeReport writes a stream whose terminal event embeds
// a report above 1 MiB — the size at which the examples' and the test
// helper's private parsers used to end the stream silently — and reads it
// back whole; a reader that stops early leaves the rest unread.
func TestSSERoundTripLargeReport(t *testing.T) {
	report, err := json.Marshal(map[string]string{"pad": strings.Repeat("x", 3<<20)})
	if err != nil {
		t.Fatal(err)
	}
	sent := []Event{
		{Seq: 1, Type: "result", Completed: 1, Total: 1},
		{Seq: 2, Type: "done", Completed: 1, Total: 1, Report: report},
	}
	var stream bytes.Buffer
	for _, ev := range sent {
		if err := WriteSSE(&stream, ev); err != nil {
			t.Fatal(err)
		}
	}
	wire := stream.Bytes()

	var got []Event
	if err := ReadSSE(bytes.NewReader(wire), func(ev Event) bool {
		got = append(got, ev)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Seq != 1 || !got[1].Terminal() {
		t.Fatalf("read back %d events: %+v", len(got), got)
	}
	if !bytes.Equal(got[1].Report, report) {
		t.Fatalf("terminal report came back as %d bytes, sent %d", len(got[1].Report), len(report))
	}

	got = got[:0]
	if err := ReadSSE(bytes.NewReader(wire), func(ev Event) bool {
		got = append(got, ev)
		return false
	}); err != nil || len(got) != 1 {
		t.Fatalf("a reader that stops after one event got %d, err %v", len(got), err)
	}
}
