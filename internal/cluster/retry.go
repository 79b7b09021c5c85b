package cluster

// This file is the fault-tolerance layer of the task runtime: transient
// error classification, bounded per-task retry with exponential backoff,
// deterministic fault injection (internal/chaos), and the enforced memory
// budget with its graceful-degradation ladder.
//
// Retry wraps the task closure itself, so both execution paths — the
// serial simulate loop and the work-stealing pool — get identical
// semantics: a task attempt that fails
// with an error classified transient is re-executed after a backoff, up to
// Context.MaxTaskRetries times. Tasks are pure functions of their input
// partition or morsel (the lineage contract narrow transforms already
// satisfy), so re-execution is safe: a retried attempt overwrites its
// result slot with the identical value. Errors that exhaust the retry
// budget — or were never transient — surface wrapped in a TaskError naming
// the stage, partition, and morsel, so a failed query reports where it
// failed rather than a bare error.

import (
	"errors"
	"fmt"
	"time"

	"skysql/internal/chaos"
)

// ErrMemoryBudget is returned when a query's live materialized bytes
// exceed Context.MemoryBudget after every degradation step has already
// been taken. Budget failures are not transient: retrying the task would
// re-exceed the budget.
var ErrMemoryBudget = errors.New("cluster: query memory budget exceeded")

// transientError marks an error as transient: a task failing with one is
// retried (up to the budget) instead of failing the round.
type transientError struct{ err error }

func (e *transientError) Error() string { return "transient: " + e.err.Error() }
func (e *transientError) Unwrap() error { return e.err }

// Transient wraps err as transient, making it eligible for task retry.
// Infrastructure-style failures (a lost executor, an injected fault) are
// transient; query errors (a type mismatch in a predicate) are not and
// must stay unwrapped so they fail fast.
func Transient(err error) error {
	if err == nil {
		return nil
	}
	return &transientError{err: err}
}

// IsTransient reports whether err is (or wraps) a transient error.
func IsTransient(err error) bool {
	var t *transientError
	return errors.As(err, &t)
}

// TaskError is the failure of one task after its retry budget (if any) was
// exhausted, carrying the scheduling coordinates of the failed work unit.
type TaskError struct {
	Stage     int64 // 1-based scheduled-round number
	Partition int64 // partition index within the round
	Morsel    int64 // morsel index within the partition (0 when unsplit)
	Attempts  int64 // attempts made, including the first
	Err       error
}

func (e *TaskError) Error() string {
	return fmt.Sprintf("cluster: stage %d partition %d morsel %d failed after %d attempt(s): %v",
		e.Stage, e.Partition, e.Morsel, e.Attempts, e.Err)
}

func (e *TaskError) Unwrap() error { return e.Err }

// maxBackoff caps the exponential retry backoff so a deep retry chain
// cannot stall a round for seconds.
const maxBackoff = 50 * time.Millisecond

// defaultBackoff is the base backoff when Context.RetryBackoff is unset.
const defaultBackoff = 500 * time.Microsecond

// taskAttempts wraps one task closure with the retry loop. stage is the
// 1-based round number, (part, morsel) the task's coordinates within it.
// The wrapper is installed on every execution path by runTasks' callers,
// so pool rounds and goroutine rounds retry identically.
func (c *Context) taskAttempts(stage, part, morsel int64, run func() error) func() error {
	return func() error {
		for attempt := int64(0); ; attempt++ {
			if err := c.CheckCanceled(); err != nil {
				return err
			}
			err := c.attemptTask(stage, part, morsel, attempt, run)
			if err == nil {
				return nil
			}
			// Cooperative verdicts pass through untouched: a canceled or
			// budget-failed round is not a task failure.
			if errors.Is(err, ErrCanceled) || errors.Is(err, ErrMemoryBudget) {
				return err
			}
			if IsTransient(err) && attempt < int64(c.MaxTaskRetries) {
				c.Metrics.Add(TaskRetries, 1)
				c.backoff(stage, part, morsel, attempt)
				continue
			}
			c.Metrics.Add(TasksFailed, 1)
			return &TaskError{Stage: stage, Partition: part, Morsel: morsel, Attempts: attempt + 1, Err: err}
		}
	}
}

// attemptTask runs one attempt, applying the injector's verdict first:
// straggler delay, allocation spike (charged to the metrics for the
// attempt's duration, so the memory governor sees the pressure), then the
// injected transient failure — before the real work, so an injected fault
// leaves no partial results behind.
func (c *Context) attemptTask(stage, part, morsel, attempt int64, run func() error) error {
	if c.Injector != nil {
		d := c.Injector.Decide(stage, part<<20|morsel, attempt)
		if d.Delay > 0 {
			time.Sleep(d.Delay)
			// A straggler delay can span a deadline that fired after the
			// attempt started; re-check so the worker's observed
			// cancellation latency stays bounded by the injected delay.
			if err := c.CheckCanceled(); err != nil {
				return err
			}
		}
		if d.AllocBytes > 0 {
			c.Metrics.Alloc(d.AllocBytes)
			defer c.Metrics.Free(d.AllocBytes)
			if err := c.CheckBudget(); err != nil {
				return err
			}
		}
		if d.Fail {
			c.Metrics.Add(InjectedFaults, 1)
			return Transient(fmt.Errorf("chaos: injected fault (stage %d partition %d morsel %d attempt %d)",
				stage, part, morsel, attempt))
		}
	}
	return run()
}

// backoff sleeps the exponential backoff before retry attempt+1: the base
// doubles per attempt, capped at maxBackoff, plus deterministic jitter
// (up to half the backoff) derived from the task key — no global RNG, so
// chaos runs stay bit-reproducible.
func (c *Context) backoff(stage, part, morsel, attempt int64) {
	base := c.RetryBackoff
	if base <= 0 {
		base = defaultBackoff
	}
	d := base << uint(attempt)
	if d > maxBackoff || d <= 0 {
		d = maxBackoff
	}
	half := int64(d / 2)
	if half > 0 {
		d += time.Duration(chaos.Mix(stage, part<<20|morsel, attempt, 0x6a09e667) % uint64(half))
	}
	time.Sleep(d)
}

// Degradation ladder levels of the memory governor. The spill rung only
// exists when Context.SpillDir is set; without a spill directory the
// ladder skips straight from none to drop-sidecars, preserving the
// pre-spill governor bit-for-bit.
const (
	degradeNone         int32 = iota
	degradeSpill              // gather buffers written out as temporary segments (out-of-core, bit-identical)
	degradeDropSidecars       // columnar sidecars no longer attached (boxed path, bit-identical)
	degradeCollapseFans       // exchange fan-out collapsed to the minimum partition count
)

// SidecarsDropped reports whether the memory governor's first degradation
// step fired: datasets then stop carrying columnar sidecars and fused
// stages stop decoding at the scan, trading decode-once speed for the
// boxed path's smaller footprint. Results are bit-identical by the kernel
// ablation contract.
func (c *Context) SidecarsDropped() bool {
	return c.degradeLevel.Load() >= degradeDropSidecars
}

// SpillActive reports whether the governor's spill tier is engaged:
// exchange gather buffers then write out as temporary segments under
// Context.SpillDir and re-stream instead of staying live. Always false
// without a spill directory (the rung does not exist then).
func (c *Context) SpillActive() bool {
	return c.SpillDir != "" && c.degradeLevel.Load() >= degradeSpill
}

// fanoutCollapsed reports whether the governor's second step fired:
// exchanges then fan out to the fewest partitions that still bound each
// task's working set instead of the executor count.
func (c *Context) fanoutCollapsed() bool {
	return c.degradeLevel.Load() >= degradeCollapseFans
}

// CheckBudget enforces Context.MemoryBudget against the live-bytes
// counter, degrading gracefully before failing: above 50% of the budget it
// engages the spill tier (when SpillDir is set — the rung is skipped
// otherwise), above 60% it drops columnar sidecars, above 80% it collapses
// exchange fan-out, and only when the budget is exceeded with every step
// already taken does it return ErrMemoryBudget. Each escalation is
// recorded in the metrics (Metrics.DegradationSteps). Called at every
// cooperative checkpoint — round scheduling, exchanges, injected
// allocation spikes — so workers observe the budget with bounded latency.
// No-op when MemoryBudget <= 0 and no enforcing global governor is
// attached.
//
// With a global governor (Context.Global) the same ladder is walked a
// second time against the shared pool's live bytes and budget. Both walks
// escalate this query's own degradeLevel: global pressure degrades the
// queries that observe it — each at its next cooperative checkpoint —
// rather than electing a victim. Steps taken for the global scope are
// tagged "[global]" in the recorded step list and counted on the
// governor.
func (c *Context) CheckBudget() error {
	if c.MemoryBudget > 0 {
		if err := c.climbLadder(c.Metrics.LiveBytes(), c.MemoryBudget, "", nil); err != nil {
			return err
		}
	}
	if g := c.Global; g != nil && g.Budget() > 0 {
		if err := c.climbLadder(g.LiveBytes(), g.Budget(), " [global]", g); err != nil {
			return err
		}
	}
	return nil
}

// climbLadder runs one scope's degradation walk: compare live bytes
// against the soft thresholds of the given budget, escalate the query's
// degradeLevel one rung at a time (CAS — concurrent checkpoints escalate
// at most once per rung), and fail with ErrMemoryBudget only when the
// budget is exceeded with every rung already taken. scope annotates the
// recorded step strings and the error ("" for the query's own budget);
// g, when non-nil, counts the escalation as globally caused.
func (c *Context) climbLadder(live, budget int64, scope string, g *Governor) error {
	if c.degradeLevel.Load() >= degradeCollapseFans && live > budget {
		return fmt.Errorf("%w: %d bytes live%s, budget %d (sidecars dropped, fan-out collapsed)",
			ErrMemoryBudget, live, scope, budget)
	}
	for {
		level := c.degradeLevel.Load()
		if level >= degradeCollapseFans {
			return nil
		}
		next := level + 1
		if next == degradeSpill && c.SpillDir == "" {
			// No spill directory: the spill rung does not exist. Escalate
			// straight to drop-sidecars, preserving the pre-spill ladder —
			// same thresholds, same step count, same recorded names.
			next = degradeDropSidecars
		}
		var threshold int64
		var step string
		switch next {
		case degradeSpill:
			threshold, step = budget*5/10, "spill-to-segments"
		case degradeDropSidecars:
			threshold, step = budget*6/10, "drop-sidecars"
		default: // degradeCollapseFans
			threshold, step = budget*8/10, "collapse-fanout"
		}
		if live <= threshold {
			return nil
		}
		if c.degradeLevel.CompareAndSwap(level, next) {
			c.Metrics.AddDegradation(fmt.Sprintf("%s%s (live=%d, budget=%d)", step, scope, live, budget))
			if g != nil {
				g.escalations.Add(1)
			}
		}
	}
}

// AddDegradation records one memory-governor escalation, in order.
func (m *Metrics) AddDegradation(step string) {
	if m == nil {
		return
	}
	m.Add(DegradationSteps, 1)
	m.mu.Lock()
	m.degrade = append(m.degrade, step)
	m.mu.Unlock()
}

// Degradations returns the recorded escalation steps, in order.
func (m *Metrics) Degradations() []string {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, len(m.degrade))
	copy(out, m.degrade)
	return out
}
