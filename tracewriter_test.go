package cliffedge

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cliffedge/internal/trace"
)

// TestTraceWriterSequenceOrder: on either engine and in every buffering
// posture, the binary trace holds the run's events in sequence order,
// event i stamped Seq i, and summarises to the run's Stats. With the
// trace buffered, the file is exactly the encoding of Result.Events.
func TestTraceWriterSequenceOrder(t *testing.T) {
	postures := []struct {
		name string
		opts []Option
	}{
		{"buffered", nil},
		{"unbuffered", []Option{WithoutTraceBuffer()}},
		{"unbuffered+observer", []Option{WithoutTraceBuffer(), WithObserver(func(Event) {})}},
	}
	for _, eng := range []struct {
		name string
		e    Engine
	}{{"sim", Sim()}, {"live", Live()}} {
		for _, p := range postures {
			t.Run(eng.name+"/"+p.name, func(t *testing.T) {
				var buf bytes.Buffer
				opts := append([]Option{WithEngine(eng.e), WithSeed(1), WithTraceWriter(&buf)}, p.opts...)
				c, err := New(Grid(12, 12), opts...)
				if err != nil {
					t.Fatal(err)
				}
				res, err := c.Run(context.Background(), NewPlan().At(10).Crash(CenterBlock(12, 12, 4)...))
				if err != nil {
					t.Fatal(err)
				}
				events, err := trace.ReadBinary(bytes.NewReader(buf.Bytes()))
				if err != nil {
					t.Fatal(err)
				}
				if len(events) == 0 {
					t.Fatal("empty trace")
				}
				for i, e := range events {
					if e.Seq != i {
						t.Fatalf("event %d has Seq %d (%v)", i, e.Seq, e)
					}
				}
				if got := trace.Summarize(events); got != res.Stats {
					t.Errorf("trace summarises to %+v, run reports %+v", got, res.Stats)
				}
				if p.opts != nil {
					return
				}
				var want bytes.Buffer
				if err := trace.WriteBinary(&want, res.Events()); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(buf.Bytes(), want.Bytes()) {
					t.Errorf("trace file (%d bytes) is not the encoding of Result.Events (%d bytes)",
						buf.Len(), want.Len())
				}
			})
		}
	}
}

// failingWriter accepts n bytes and fails every write after that.
type failingWriter struct{ n int }

var errDiskFull = errors.New("disk full")

func (w *failingWriter) Write(p []byte) (int, error) {
	if len(p) > w.n {
		k := w.n
		w.n = 0
		return k, errDiskFull
	}
	w.n -= len(p)
	return len(p), nil
}

// TestTraceWriterErrorFailsRun: a trace the writer could not take fails
// the run on either engine, whether the write fails at the first byte or
// after some blocks have gone out.
func TestTraceWriterErrorFailsRun(t *testing.T) {
	for _, eng := range []struct {
		name string
		e    Engine
	}{{"sim", Sim()}, {"live", Live()}} {
		for _, n := range []int{0, 10_000} {
			c, err := New(Grid(12, 12), WithEngine(eng.e), WithSeed(1),
				WithTraceWriter(&failingWriter{n: n}))
			if err != nil {
				t.Fatal(err)
			}
			_, err = c.Run(context.Background(), NewPlan().At(10).Crash(CenterBlock(12, 12, 4)...))
			if err == nil || !strings.Contains(err.Error(), "trace sink") || !errors.Is(err, errDiskFull) {
				t.Errorf("%s, failing after %d bytes: err = %v, want a trace sink error", eng.name, n, err)
			}
		}
	}
}

// TestCampaignTraceDirWriteError: a job whose trace file cannot be
// written reports the error and leaves no file behind, on either engine.
// The trace path is a link to /dev/full, where every write fails.
func TestCampaignTraceDirWriteError(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full:", err)
	}
	dir := t.TempDir()
	camp, err := NewCampaign(
		WithTopologies("grid"),
		WithRegimes("quiescent"),
		WithCampaignEngines("sim", "live"),
		WithSeedRange(1, 1),
		WithTraceDir(dir),
	)
	if err != nil {
		t.Fatal(err)
	}
	jobs := camp.Jobs()
	if len(jobs) != 2 {
		t.Fatalf("%d jobs, want one per engine", len(jobs))
	}
	for _, job := range jobs {
		path := filepath.Join(dir, job.TraceName())
		if err := os.Symlink("/dev/full", path); err != nil {
			t.Fatal(err)
		}
		s := camp.RunJob(context.Background(), job)
		if !strings.Contains(s.Err, "trace sink") {
			t.Errorf("job %v: Err = %q, want a trace sink error", job, s.Err)
		}
		if _, err := os.Lstat(path); !os.IsNotExist(err) {
			t.Errorf("job %v: trace path left behind (Lstat err = %v)", job, err)
		}
	}
	// A trace directory that does not exist fails the job at create time.
	camp, err = NewCampaign(WithTopologies("grid"), WithRegimes("quiescent"),
		WithSeedRange(1, 1), WithTraceDir(filepath.Join(dir, "missing")))
	if err != nil {
		t.Fatal(err)
	}
	if s := camp.RunJob(context.Background(), camp.Jobs()[0]); s.Err == "" {
		t.Error("job with a missing trace directory reports no error")
	}
}
