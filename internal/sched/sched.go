// Package sched is the query admission layer: it decides which kernel
// queries may run — a fixed number of execution slots plus a bounded
// wait queue, granted in arrival order — and how much work each may do
// (per-query scan-entry and write-byte budgets, budget.go). Tablet
// passes are not scheduled: once admitted, a query's scans run as
// ordinary tablet-server scans.
//
// The package is deliberately dependency-free: the accumulo layer admits
// every kernel query through a *Scheduler, and the telemetry layer
// consumes budgets through its BudgetHook interface. A nil *Scheduler
// means "scheduling off" — every method is nil-receiver safe and grants
// immediately.
package sched

import (
	"fmt"
	"sync"
	"time"
)

// Defaults applied by New when Config leaves a knob at zero.
const (
	// DefaultMaxConcurrentQueries bounds kernel queries in flight.
	DefaultMaxConcurrentQueries = 64
	// DefaultMaxQueuedQueries bounds queries waiting for a slot before
	// admission starts rejecting.
	DefaultMaxQueuedQueries = 256
)

// Config sizes a Scheduler.
type Config struct {
	// MaxConcurrentQueries bounds kernel queries executing at once; the
	// excess waits in a bounded admission queue. 0 selects
	// DefaultMaxConcurrentQueries; negative disables admission control.
	MaxConcurrentQueries int
	// MaxQueuedQueries bounds the admission wait queue; a query arriving
	// with the queue full is rejected with *AdmissionError. 0 selects
	// DefaultMaxQueuedQueries; negative rejects immediately when all
	// slots are busy. Queued queries are granted in arrival order.
	MaxQueuedQueries int
	// ScanEntryBudget bounds the entries one query may receive from
	// scans; 0 or negative is unlimited.
	ScanEntryBudget int64
	// WriteByteBudget bounds the wire bytes one query may write; 0 or
	// negative is unlimited.
	WriteByteBudget int64
}

// AdmissionError reports a query rejected at admission: every execution
// slot was busy and the wait queue was full.
type AdmissionError struct {
	Tenant string
	Limit  int // concurrent query slots
	Queued int // wait-queue bound
}

func (e *AdmissionError) Error() string {
	return fmt.Sprintf("sched: query admission rejected for tenant %q: %d queries running, %d queued",
		e.Tenant, e.Limit, e.Queued)
}

// Scheduler implements bounded FIFO admission and mints per-query
// budgets. All methods are safe for concurrent use and nil-receiver
// safe.
type Scheduler struct {
	cfg       Config
	limit     int // query slots; 0 = admission off
	maxQueued int

	mu      sync.Mutex
	running int
	// waiters are the queued queries, oldest first. A waiter exists only
	// while every slot is taken: release hands its slot to waiters[0].
	waiters []chan struct{}
}

// New builds a Scheduler from cfg (see Config for zero-value defaults).
func New(cfg Config) *Scheduler {
	s := &Scheduler{cfg: cfg, limit: cfg.MaxConcurrentQueries, maxQueued: cfg.MaxQueuedQueries}
	if s.limit == 0 {
		s.limit = DefaultMaxConcurrentQueries
	}
	if s.maxQueued == 0 {
		s.maxQueued = DefaultMaxQueuedQueries
	}
	s.limit, s.maxQueued = max(s.limit, 0), max(s.maxQueued, 0)
	return s
}

// Admit claims a query execution slot, blocking in the bounded wait
// queue when all slots are busy; queued queries are granted in arrival
// order, whatever their tenant. It returns the release func (call
// exactly once when the query finishes) and the time spent queued, or
// an *AdmissionError when the wait queue is full too.
func (s *Scheduler) Admit(tenant string) (release func(), wait time.Duration, err error) {
	if s == nil || s.limit == 0 {
		return func() {}, 0, nil
	}
	s.mu.Lock()
	if s.running < s.limit {
		s.running++
		s.mu.Unlock()
		return s.release, 0, nil
	}
	if len(s.waiters) >= s.maxQueued {
		s.mu.Unlock()
		return nil, 0, &AdmissionError{Tenant: tenant, Limit: s.limit, Queued: s.maxQueued}
	}
	ch := make(chan struct{})
	s.waiters = append(s.waiters, ch)
	s.mu.Unlock()
	start := time.Now()
	<-ch
	return s.release, time.Since(start), nil
}

// release frees a slot, or hands it straight to the oldest waiter.
func (s *Scheduler) release() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.waiters) == 0 {
		s.running--
		return
	}
	close(s.waiters[0])
	s.waiters[0] = nil
	s.waiters = s.waiters[1:]
}

// QueriesRunning returns the number of admitted queries in flight.
func (s *Scheduler) QueriesRunning() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.running
}

// QueriesQueued returns the number of queries waiting at admission.
func (s *Scheduler) QueriesQueued() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.waiters)
}

// NewBudget mints a per-query budget from the configured limits, or nil
// when no budget is configured (nil *Budget charges are free).
func (s *Scheduler) NewBudget(tenant string) *Budget {
	if s == nil || (s.cfg.ScanEntryBudget <= 0 && s.cfg.WriteByteBudget <= 0) {
		return nil
	}
	return &Budget{
		tenant:     tenant,
		scanLimit:  s.cfg.ScanEntryBudget,
		writeLimit: s.cfg.WriteByteBudget,
	}
}
