package runner

import (
	"fmt"
	"io"
	"time"
)

// Event describes one completed job, for live progress reporting.
type Event struct {
	// Done and Total count completed and scheduled jobs.
	Done, Total int
	// Job is the job that just finished.
	Job Job
	// Err is the job's error, if it failed.
	Err error
	// Reused marks jobs served from the result cache or checkpoint journal.
	Reused string
	// Elapsed is the job's own execution time.
	Elapsed time.Duration
	// Campaign is the wall-clock time since the campaign started.
	Campaign time.Duration
	// ETA estimates the remaining campaign time from the mean job time and
	// the observed completion rate; zero until one job has finished.
	ETA time.Duration
}

// ProgressFunc receives an Event after every job completion.
type ProgressFunc func(Event)

// WriterProgress returns a ProgressFunc that writes one line per completed
// job to w, e.g.
//
//	[ 3/45] fig15/Morrigan/qmm-srv-07 ok (1.2s, eta 18s)
//
// A nil w yields a nil ProgressFunc (progress disabled).
func WriterProgress(w io.Writer) ProgressFunc {
	if w == nil {
		return nil
	}
	return func(e Event) {
		status := "ok"
		switch {
		case e.Err != nil:
			status = "FAILED"
		case e.Reused != "":
			status = "reused (" + e.Reused + ")"
		}
		line := fmt.Sprintf("[%*d/%d] %s %s (%s",
			numWidth(e.Total), e.Done, e.Total, e.Job.Name(), status,
			e.Elapsed.Round(time.Millisecond))
		if e.ETA > 0 {
			line += fmt.Sprintf(", eta %s", e.ETA.Round(time.Second))
		}
		fmt.Fprintln(w, line+")")
	}
}

// numWidth returns the decimal width of n, for aligned counters.
func numWidth(n int) int {
	w := 1
	for n >= 10 {
		n /= 10
		w++
	}
	return w
}

// progressTracker accumulates completion state; its methods are called with
// the pool's mutex held.
type progressTracker struct {
	total     int
	completed int
	executed  int // completed jobs that actually simulated (Reused == "")
	started   time.Time
	fn        ProgressFunc
}

func newProgressTracker(total int, fn ProgressFunc) *progressTracker {
	return &progressTracker{total: total, started: time.Now(), fn: fn}
}

// done records one finished job and emits a progress event.
func (p *progressTracker) done(res Result) {
	p.completed++
	if res.Reused == "" {
		p.executed++
	}
	if p.fn == nil {
		return
	}
	elapsed := time.Since(p.started)
	p.fn(Event{
		Done:     p.completed,
		Total:    p.total,
		Job:      res.Job,
		Err:      res.Err,
		Reused:   res.Reused,
		Elapsed:  res.Elapsed,
		Campaign: elapsed,
		ETA:      ETA(elapsed, p.executed, p.total-p.completed),
	})
}

// ETA estimates a campaign's remaining time from the time elapsed since it
// started, the jobs that finished by simulating and the jobs not yet
// finished; it is zero until one job has simulated or when none remain.
// The estimate is remaining work at the observed aggregate rate. With W
// workers the rate already reflects W-way parallelism, so no worker-count
// correction is needed. Only jobs that actually simulated enter the
// denominator — journal/store/cache hits complete instantly, and counting
// them would divide the elapsed time across jobs that cost nothing,
// collapsing the ETA on warm-store campaigns where the remaining jobs still
// run in full.
func ETA(elapsed time.Duration, executed, remaining int) time.Duration {
	if executed <= 0 || remaining <= 0 {
		return 0
	}
	return time.Duration(float64(elapsed) / float64(executed) * float64(remaining))
}
