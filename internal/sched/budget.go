package sched

import (
	"fmt"
	"sync/atomic"
)

// Budget is one query's resource allowance: how many entries its scans
// may return and how many wire bytes its writes may ship. Charges are
// atomic adds, cheap enough for the hot paths that also move the
// telemetry counters; the first charge past a limit returns a
// *BudgetError and every later charge keeps failing, so an over-budget
// query unwinds promptly at whichever site it next touches.
//
// A nil *Budget is "unlimited": both charge methods are nil-receiver
// safe no-ops. Budget implements telemetry.BudgetHook.
type Budget struct {
	tenant     string
	scanLimit  int64
	writeLimit int64
	scanUsed   atomic.Int64
	writeUsed  atomic.Int64
}

// NewBudget builds a standalone budget; limits <= 0 are unlimited.
func NewBudget(tenant string, scanEntries, writeBytes int64) *Budget {
	return &Budget{tenant: tenant, scanLimit: scanEntries, writeLimit: writeBytes}
}

// ChargeScanEntries charges n scanned entries against the budget.
func (b *Budget) ChargeScanEntries(n int64) error {
	if b == nil || b.scanLimit <= 0 {
		return nil
	}
	if used := b.scanUsed.Add(n); used > b.scanLimit {
		return &BudgetError{Tenant: b.tenant, Resource: "scan entries", Limit: b.scanLimit, Used: used}
	}
	return nil
}

// ChargeWriteBytes charges n written wire bytes against the budget.
func (b *Budget) ChargeWriteBytes(n int64) error {
	if b == nil || b.writeLimit <= 0 {
		return nil
	}
	if used := b.writeUsed.Add(n); used > b.writeLimit {
		return &BudgetError{Tenant: b.tenant, Resource: "write bytes", Limit: b.writeLimit, Used: used}
	}
	return nil
}

// BudgetError reports a query cancelled for exhausting its budget.
type BudgetError struct {
	Tenant   string
	Resource string // "scan entries" or "write bytes"
	Limit    int64
	Used     int64
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("sched: query budget exhausted for tenant %q: %s %d over limit %d",
		e.Tenant, e.Resource, e.Used, e.Limit)
}
