// Package chaos is the deterministic fault-injection substrate behind the
// engine's fault-tolerance testing: a seedable Injector that decides, as a
// pure function of (seed, stage, task, attempt), whether a task attempt
// suffers a transient error, a straggler delay, or an allocation spike.
//
// Determinism is the whole point. Spark-style task retry is only testable
// if every chaos run is bit-reproducible: the Injector never consults a
// clock, a global RNG, or any scheduling state, so the set of injected
// faults — and therefore the retry counters benchdiff gates on — depends
// only on the key tuple, never on timing or worker interleaving. The same
// seed over the same plan injects the same faults whether the run executes
// serially in simulate mode or on the work-stealing pool under the race
// detector.
package chaos

import "time"

// Config parameterizes an Injector. The zero value injects nothing.
type Config struct {
	// Seed keys every decision; two Injectors with the same Seed make
	// identical decisions for identical (stage, task, attempt) tuples.
	Seed int64
	// FaultRate is the probability a task attempt fails with a transient
	// error (before running, so no partial work is observable).
	FaultRate float64
	// StragglerRate is the probability a task attempt is delayed by
	// StragglerDelay before it runs, modelling a slow executor.
	StragglerRate  float64
	StragglerDelay time.Duration
	// AllocSpikeRate is the probability a task attempt charges
	// AllocSpikeBytes of transient memory for its duration, pressuring the
	// memory governor.
	AllocSpikeRate  float64
	AllocSpikeBytes int64
}

// Injector makes deterministic fault decisions. A nil Injector injects
// nothing; Injectors are stateless and safe for concurrent use across
// queries.
type Injector struct {
	cfg Config
}

// New builds an Injector from a config.
func New(cfg Config) *Injector { return &Injector{cfg: cfg} }

// Config returns the injector's configuration.
func (in *Injector) Config() Config {
	if in == nil {
		return Config{}
	}
	return in.cfg
}

// Decision is the verdict for one task attempt. Fields are independent: an
// attempt may be delayed, spike its allocation, and still fail.
type Decision struct {
	// Fail injects a transient error instead of running the attempt.
	Fail bool
	// Delay is the straggler delay to sleep before the attempt (0 = none).
	Delay time.Duration
	// AllocBytes is the transient allocation to charge around the attempt
	// (0 = none).
	AllocBytes int64
}

// Per-category salts keep the three decision streams independent: a tuple
// that draws a fault does not thereby also draw a straggler.
const (
	saltFault     = 0x5f4a7c15
	saltStraggler = 0x2545f491
	saltAlloc     = 0x9e3779b9
)

// Decide returns the deterministic verdict for one attempt of one task.
// stage is the 1-based scheduled-round number, task identifies the work
// unit within the round (the cluster packs partition and morsel indices),
// attempt counts retries from 0.
func (in *Injector) Decide(stage, task, attempt int64) Decision {
	if in == nil {
		return Decision{}
	}
	var d Decision
	if in.cfg.FaultRate > 0 && uniform(in.cfg.Seed, stage, task, attempt, saltFault) < in.cfg.FaultRate {
		d.Fail = true
	}
	if in.cfg.StragglerRate > 0 && in.cfg.StragglerDelay > 0 &&
		uniform(in.cfg.Seed, stage, task, attempt, saltStraggler) < in.cfg.StragglerRate {
		d.Delay = in.cfg.StragglerDelay
	}
	if in.cfg.AllocSpikeRate > 0 && in.cfg.AllocSpikeBytes > 0 &&
		uniform(in.cfg.Seed, stage, task, attempt, saltAlloc) < in.cfg.AllocSpikeRate {
		d.AllocBytes = in.cfg.AllocSpikeBytes
	}
	return d
}

// Mix folds the values through a splitmix64 avalanche chain — the seedable
// hash behind Decide, exported so the cluster's retry backoff can derive
// deterministic jitter from the same key space.
func Mix(vals ...int64) uint64 {
	h := uint64(0x243f6a8885a308d3) // pi, as tradition demands
	for _, v := range vals {
		h = splitmix64(h ^ uint64(v))
	}
	return h
}

// uniform maps a key tuple to [0, 1) with 53 bits of precision.
func uniform(vals ...int64) float64 {
	return float64(Mix(vals...)>>11) / (1 << 53)
}

// splitmix64 is the standard 64-bit avalanche finalizer.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
