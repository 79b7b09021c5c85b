package cluster

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"skysql/internal/skyline"
	"skysql/internal/types"
)

func TestWorkerPoolRunsAllTasks(t *testing.T) {
	p := NewWorkerPool(4)
	defer p.Close()
	const n = 100
	var done atomic.Int64
	tasks := make([]Task, n)
	for i := range tasks {
		home := i % 4
		tasks[i] = Task{Home: home, Run: func() error {
			done.Add(1)
			return nil
		}}
	}
	if err := p.RunBatch(tasks, nil, nil); err != nil {
		t.Fatal(err)
	}
	if done.Load() != n {
		t.Errorf("executed %d tasks, want %d", done.Load(), n)
	}
}

func TestWorkerPoolReusableAcrossRounds(t *testing.T) {
	p := NewWorkerPool(2)
	defer p.Close()
	for round := 0; round < 10; round++ {
		var done atomic.Int64
		tasks := make([]Task, 8)
		for i := range tasks {
			tasks[i] = Task{Home: i, Run: func() error { done.Add(1); return nil }}
		}
		if err := p.RunBatch(tasks, nil, nil); err != nil {
			t.Fatal(err)
		}
		if done.Load() != 8 {
			t.Fatalf("round %d: executed %d tasks, want 8", round, done.Load())
		}
	}
}

func TestWorkerPoolPropagatesError(t *testing.T) {
	p := NewWorkerPool(2)
	defer p.Close()
	boom := errors.New("boom")
	tasks := make([]Task, 20)
	for i := range tasks {
		i := i
		tasks[i] = Task{Home: i, Run: func() error {
			if i == 3 {
				return boom
			}
			return nil
		}}
	}
	if err := p.RunBatch(tasks, nil, nil); !errors.Is(err, boom) {
		t.Errorf("err = %v, want boom", err)
	}
}

func TestWorkerPoolErrorAbortsRemainingTasks(t *testing.T) {
	p := NewWorkerPool(1) // one worker: strictly sequential execution
	defer p.Close()
	boom := errors.New("boom")
	var executed atomic.Int64
	tasks := make([]Task, 50)
	for i := range tasks {
		// Whichever task the worker happens to execute first fails (the
		// deque is popped LIFO, so it is not necessarily index 0); every
		// later task must then be skipped by the batch abort.
		tasks[i] = Task{Home: 0, Run: func() error {
			if executed.Add(1) == 1 {
				return boom
			}
			return nil
		}}
	}
	if err := p.RunBatch(tasks, nil, nil); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if n := executed.Load(); n != 1 {
		t.Errorf("%d tasks ran despite the first one failing; abort did not take effect", n)
	}
}

func TestWorkerPoolCancellation(t *testing.T) {
	p := NewWorkerPool(2)
	defer p.Close()
	tasks := make([]Task, 10)
	for i := range tasks {
		tasks[i] = Task{Home: i, Run: func() error { return nil }}
	}
	canceled := func() bool { return true }
	if err := p.RunBatch(tasks, canceled, nil); !errors.Is(err, ErrCanceled) {
		t.Errorf("err = %v, want ErrCanceled", err)
	}
}

func TestWorkerPoolObserveReportsSteals(t *testing.T) {
	p := NewWorkerPool(4)
	defer p.Close()
	// All tasks homed on worker 0 with real work: the other three workers
	// have empty deques and must steal to participate.
	var steals, busyCalls atomic.Int64
	tasks := make([]Task, 64)
	for i := range tasks {
		tasks[i] = Task{Home: 0, Run: func() error {
			time.Sleep(200 * time.Microsecond)
			return nil
		}}
	}
	observe := func(worker int, stolen bool, d time.Duration) {
		busyCalls.Add(1)
		if stolen {
			steals.Add(1)
		}
	}
	if err := p.RunBatch(tasks, nil, observe); err != nil {
		t.Fatal(err)
	}
	if busyCalls.Load() != 64 {
		t.Errorf("observe called %d times, want 64", busyCalls.Load())
	}
	if steals.Load() == 0 {
		t.Error("no steals observed on a single-home batch with 4 workers")
	}
}

// TestGoroutineRoundStopsAfterError pins the fail-fast behaviour of a
// round on a context without a session pool: the round runs on a pool
// created for it, whose batch abort skips every task still queued once one
// task fails, instead of letting the other workers drain them all. The
// pool pops its deques last-in-first-out, so partition 0 is not the first
// to run; whichever task runs first fails.
func TestGoroutineRoundStopsAfterError(t *testing.T) {
	ctx := NewContext(2)
	parts := make([][]types.Row, 100)
	for i := range parts {
		parts[i] = rows(int64(i))
	}
	d := &Dataset{Parts: parts}
	boom := errors.New("boom")
	var executed atomic.Int64
	_, err := ctx.MapPartitions(d, func(i int, part []types.Row) ([]types.Row, error) {
		if executed.Add(1) == 1 {
			return nil, boom
		}
		time.Sleep(2 * time.Millisecond)
		return part, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if n := executed.Load(); n >= 100 {
		t.Errorf("all %d partitions ran despite the early error; round did not fail fast", n)
	}
}

// TestUnpooledRoundRecordsWorkerStats pins that a real round on a bare
// context runs on the work-stealing pool: it records per-worker busy time
// and achieved parallelism exactly like a round on a session pool.
func TestUnpooledRoundRecordsWorkerStats(t *testing.T) {
	ctx := NewContext(2)
	d := &Dataset{Parts: [][]types.Row{rows(1, 2), rows(3), rows(4, 5)}}
	_, err := ctx.MapPartitions(d, func(i int, part []types.Row) ([]types.Row, error) {
		time.Sleep(time.Millisecond)
		return part, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if busy := ctx.Metrics.WorkerBusy(); len(busy) == 0 {
		t.Error("round on a bare context recorded no per-worker busy time")
	}
	if p := ctx.Metrics.AchievedParallelism(); p <= 0 {
		t.Errorf("achieved parallelism = %v, want > 0", p)
	}
}

// TestSimulatedMorselMakespan pins the simulate-mode honesty contract for
// morsel rounds: the simulated stage duration is the greedy makespan over
// the measured per-morsel durations — not the serial sum — so morsel-mode
// simulated speedups use exactly the same Makespan model as
// whole-partition rounds, and SimAdjustment goes negative by the
// parallelism the model credits.
func TestSimulatedMorselMakespan(t *testing.T) {
	ctx := NewContext(4)
	ctx.Simulate = true
	ctx.MorselParallel = true
	ctx.MorselTargetRows = 512
	part := make([]types.Row, 4096)
	for i := range part {
		part[i] = types.Row{types.Int(int64(i))}
	}
	d := &Dataset{Parts: [][]types.Row{part}}
	out, err := ctx.MapPartitionsSplittable(d, func(i int, rows []types.Row, b *skyline.Batch) ([]types.Row, *skyline.Batch, error) {
		time.Sleep(time.Millisecond) // measurable, evenly-sized morsel work
		return rows, nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 4096 {
		t.Fatalf("NumRows = %d, want 4096", out.NumRows())
	}
	if got := ctx.Metrics.MorselsExecuted(); got != 8 {
		t.Fatalf("morsels executed = %d, want 8 (4096 rows / 512 target)", got)
	}
	st := ctx.Metrics.StageTimes()
	if len(st) != 1 || st[0].Tasks != 8 {
		t.Fatalf("stage times = %+v, want one stage of 8 tasks", st)
	}
	// 8 morsels of ~1ms on 4 simulated workers: makespan ~2ms, serial ~8ms.
	// The adjustment (sim - real) must credit at least half the serial time;
	// a serial-sum regression would make it ~0.
	if adj := ctx.SimAdjustment(); adj > -2*time.Millisecond {
		t.Errorf("SimAdjustment = %v, want <= -2ms (makespan model, not serial sum)", adj)
	}
	if ap := ctx.Metrics.AchievedParallelism(); ap < 2 {
		t.Errorf("achieved parallelism = %.2f, want >= 2 on 4 simulated workers", ap)
	}
}

// TestMorselStealingOnSkewedPartitions runs a real pool over a skewed
// layout — one hot partition among trivial ones — and asserts the morsel
// runtime actually rebalances: the hot partition splits into morsels, idle
// workers steal them, and the output matches serial execution exactly.
func TestMorselStealingOnSkewedPartitions(t *testing.T) {
	hot := make([]types.Row, 4096)
	for i := range hot {
		hot[i] = types.Row{types.Int(int64(i))}
	}
	parts := [][]types.Row{hot, rows(1), rows(2), rows(3)}
	fn := func(i int, part []types.Row, b *skyline.Batch) ([]types.Row, *skyline.Batch, error) {
		out := make([]types.Row, len(part))
		for j, r := range part {
			// Per-row compute so the hot partition's morsels take long
			// enough for idle workers to wake up and steal.
			v := r[0].AsInt()
			for k := int64(0); k < 2000; k++ {
				v = v*3 + 1
			}
			_ = v
			out[j] = types.Row{types.Int(r[0].AsInt() * 2)}
		}
		return out, nil, nil
	}

	serialCtx := NewContext(1)
	want, err := serialCtx.MapPartitionsSplittable(&Dataset{Parts: parts}, fn)
	if err != nil {
		t.Fatal(err)
	}

	pool := NewWorkerPool(4)
	defer pool.Close()
	ctx := NewContext(4)
	ctx.Pool = pool
	ctx.MorselParallel = true
	ctx.MorselTargetRows = 256
	got, err := ctx.MapPartitionsSplittable(&Dataset{Parts: parts}, fn)
	if err != nil {
		t.Fatal(err)
	}

	if ctx.Metrics.MorselsExecuted() <= int64(len(parts)) {
		t.Errorf("morsels executed = %d, want > %d (hot partition must split)",
			ctx.Metrics.MorselsExecuted(), len(parts))
	}
	if ctx.Metrics.Steals() == 0 {
		t.Error("steals = 0: idle workers never rebalanced the hot partition's morsels")
	}
	wr, gr := want.Gather(), got.Gather()
	if len(wr) != len(gr) {
		t.Fatalf("row count: serial %d, morsel-parallel %d", len(wr), len(gr))
	}
	for i := range wr {
		if wr[i][0].AsInt() != gr[i][0].AsInt() {
			t.Fatalf("row %d: serial %v, morsel-parallel %v", i, wr[i][0], gr[i][0])
		}
	}
}
