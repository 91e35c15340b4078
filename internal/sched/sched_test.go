package sched

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestAdmitImmediate: with free slots Admit grants without waiting.
func TestAdmitImmediate(t *testing.T) {
	s := New(Config{MaxConcurrentQueries: 2})
	rel1, wait, err := s.Admit("a")
	if err != nil || wait != 0 {
		t.Fatalf("Admit: wait=%v err=%v", wait, err)
	}
	rel2, _, err := s.Admit("a")
	if err != nil {
		t.Fatalf("second Admit: %v", err)
	}
	if got := s.QueriesRunning(); got != 2 {
		t.Fatalf("QueriesRunning = %d, want 2", got)
	}
	rel1()
	rel2()
	if got := s.QueriesRunning(); got != 0 {
		t.Fatalf("QueriesRunning after release = %d, want 0", got)
	}
}

// TestAdmitRejectsWhenQueueFull: slots busy + queue full → typed error.
func TestAdmitRejectsWhenQueueFull(t *testing.T) {
	s := New(Config{MaxConcurrentQueries: 1, MaxQueuedQueries: -1})
	rel, _, err := s.Admit("a")
	if err != nil {
		t.Fatalf("Admit: %v", err)
	}
	_, _, err = s.Admit("b")
	var ae *AdmissionError
	if !errors.As(err, &ae) {
		t.Fatalf("Admit with full queue: err=%v, want *AdmissionError", err)
	}
	if ae.Tenant != "b" || ae.Limit != 1 {
		t.Fatalf("AdmissionError = %+v", ae)
	}
	rel()
	// Slot free again: admission recovers.
	rel2, _, err := s.Admit("b")
	if err != nil {
		t.Fatalf("Admit after release: %v", err)
	}
	rel2()
}

// TestAdmitQueues: a query over the slot limit waits until a release.
func TestAdmitQueues(t *testing.T) {
	s := New(Config{MaxConcurrentQueries: 1, MaxQueuedQueries: 4})
	rel, _, err := s.Admit("a")
	if err != nil {
		t.Fatalf("Admit: %v", err)
	}
	got := make(chan time.Duration, 1)
	go func() {
		rel2, wait, err := s.Admit("b")
		if err != nil {
			t.Error(err)
			got <- -1
			return
		}
		rel2()
		got <- wait
	}()
	// Give the second Admit time to queue, then free the slot.
	deadline := time.After(2 * time.Second)
	for s.QueriesQueued() == 0 {
		select {
		case <-deadline:
			t.Fatal("second Admit never queued")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	rel()
	if wait := <-got; wait <= 0 {
		t.Fatalf("queued Admit reported wait %v, want > 0", wait)
	}
}

// TestNilSchedulerIsOpen: a nil *Scheduler admits and grants everything.
func TestNilSchedulerIsOpen(t *testing.T) {
	var s *Scheduler
	rel, wait, err := s.Admit("x")
	if err != nil || wait != 0 {
		t.Fatalf("nil Admit: wait=%v err=%v", wait, err)
	}
	rel()
	if s.QueriesRunning() != 0 || s.QueriesQueued() != 0 || s.NewBudget("x") != nil {
		t.Fatal("nil scheduler must be unlimited")
	}
}

// TestAdmitFIFO: queued queries are granted in arrival order, whatever
// their tenant. Three queries queue one at a time behind the held slot;
// each granted query records itself and releases, handing the slot on.
func TestAdmitFIFO(t *testing.T) {
	s := New(Config{MaxConcurrentQueries: 1, MaxQueuedQueries: 8})
	hold, _, err := s.Admit("a")
	if err != nil {
		t.Fatalf("Admit: %v", err)
	}
	var (
		mu    sync.Mutex
		order []string
		wg    sync.WaitGroup
	)
	for i, tenant := range []string{"a", "a", "b"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			release, _, err := s.Admit(tenant)
			if err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			order = append(order, tenant)
			mu.Unlock()
			release()
		}()
		deadline := time.After(2 * time.Second)
		for s.QueriesQueued() < i+1 {
			select {
			case <-deadline:
				t.Fatalf("query %d (tenant %s) never queued", i, tenant)
			default:
				time.Sleep(time.Millisecond)
			}
		}
	}
	hold()
	wg.Wait()
	if got := strings.Join(order, ","); got != "a,a,b" {
		t.Fatalf("grant order = %s, want a,a,b", got)
	}
	if s.QueriesRunning() != 0 || s.QueriesQueued() != 0 {
		t.Fatalf("after drain: running=%d queued=%d", s.QueriesRunning(), s.QueriesQueued())
	}
}

// TestBudgetScanEntries: charges under the limit pass, the one crossing
// it (and all later ones) fail with a typed error.
func TestBudgetScanEntries(t *testing.T) {
	b := NewBudget("acme", 100, 0)
	if err := b.ChargeScanEntries(60); err != nil {
		t.Fatalf("charge 60: %v", err)
	}
	if err := b.ChargeScanEntries(40); err != nil {
		t.Fatalf("charge to exactly 100: %v", err)
	}
	err := b.ChargeScanEntries(1)
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("over-budget charge: err=%v, want *BudgetError", err)
	}
	if be.Tenant != "acme" || be.Resource != "scan entries" || be.Limit != 100 {
		t.Fatalf("BudgetError = %+v", be)
	}
	if b.ChargeScanEntries(1) == nil {
		t.Fatal("budget must keep failing once exhausted")
	}
	// Write side unlimited.
	if err := b.ChargeWriteBytes(1 << 40); err != nil {
		t.Fatalf("unlimited write charge: %v", err)
	}
}

// TestBudgetNil: nil budgets charge free.
func TestBudgetNil(t *testing.T) {
	var b *Budget
	if err := b.ChargeScanEntries(1 << 40); err != nil {
		t.Fatal(err)
	}
	if err := b.ChargeWriteBytes(1 << 40); err != nil {
		t.Fatal(err)
	}
}

// TestSchedulerNewBudget: budgets mint only when a limit is configured.
func TestSchedulerNewBudget(t *testing.T) {
	if b := New(Config{}).NewBudget("x"); b != nil {
		t.Fatal("no limits configured: budget must be nil")
	}
	b := New(Config{ScanEntryBudget: 10}).NewBudget("x")
	if b == nil {
		t.Fatal("scan limit configured: budget must exist")
	}
	if err := b.ChargeScanEntries(11); err == nil {
		t.Fatal("over-limit charge must fail")
	}
}
