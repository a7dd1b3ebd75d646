package sched

import "cocopelia/internal/plan"

// The per-routine planners and replays below are one-statement forwards to
// Plan and Enqueue. The repository benchmark (perfbench) pins their names,
// so they stay for it; in-repository code calls Plan, Enqueue and Run.

// PlanGemm forwards to Plan; perfbench pins it.
func (c *Context) PlanGemm(opts GemmOpts) (*plan.Plan, error) { return c.Plan(opts) }

// PlanGemmNoReuse forwards to Plan with the no-reuse request; perfbench
// pins it.
func (c *Context) PlanGemmNoReuse(opts GemmOpts) (*plan.Plan, error) {
	return c.Plan(GemmNoReuseOpts(opts))
}

// PlanGemv forwards to Plan; perfbench pins it.
func (c *Context) PlanGemv(opts GemvOpts) (*plan.Plan, error) { return c.Plan(opts) }

// PlanAxpy forwards to Plan; perfbench pins it.
func (c *Context) PlanAxpy(opts AxpyOpts) (*plan.Plan, error) { return c.Plan(opts) }

// PlanCholesky forwards to Plan; perfbench pins it.
func (c *Context) PlanCholesky(opts CholeskyOpts) (*plan.Plan, error) { return c.Plan(opts) }

// PlanLU forwards to Plan; perfbench pins it.
func (c *Context) PlanLU(opts LUOpts) (*plan.Plan, error) { return c.Plan(opts) }

// PlanTrsm forwards to Plan; perfbench pins it.
func (c *Context) PlanTrsm(opts TrsmOpts) (*plan.Plan, error) { return c.Plan(opts) }

// GemmEnqueueWith forwards to Enqueue; perfbench pins it.
func (c *Context) GemmEnqueueWith(p *plan.Plan, opts GemmOpts) (*PendingGemm, error) {
	return c.Enqueue(p, opts)
}

// GemvEnqueueWith forwards to Enqueue; perfbench pins it.
func (c *Context) GemvEnqueueWith(p *plan.Plan, opts GemvOpts) (*PendingGemm, error) {
	return c.Enqueue(p, opts)
}

// AxpyEnqueueWith forwards to Enqueue; perfbench pins it.
func (c *Context) AxpyEnqueueWith(p *plan.Plan, opts AxpyOpts) (*PendingGemm, error) {
	return c.Enqueue(p, opts)
}

// CholeskyEnqueueWith forwards to Enqueue; perfbench pins it.
func (c *Context) CholeskyEnqueueWith(p *plan.Plan, opts CholeskyOpts) (*PendingGemm, error) {
	return c.Enqueue(p, opts)
}

// LUEnqueueWith forwards to Enqueue; perfbench pins it.
func (c *Context) LUEnqueueWith(p *plan.Plan, opts LUOpts) (*PendingGemm, error) {
	return c.Enqueue(p, opts)
}

// TrsmEnqueueWith forwards to Enqueue; perfbench pins it.
func (c *Context) TrsmEnqueueWith(p *plan.Plan, opts TrsmOpts) (*PendingGemm, error) {
	return c.Enqueue(p, opts)
}
