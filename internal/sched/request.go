package sched

import (
	"errors"
	"fmt"

	"cocopelia/internal/cudart"
	"cocopelia/internal/plan"
)

// Request is one routine invocation: the option structs GemmOpts,
// GemmNoReuseOpts, GemvOpts, AxpyOpts, SyrkOpts, CholeskyOpts, LUOpts,
// TrsmOpts and the comparator requests GemmXtOpts, GemmBlasxOpts and
// AxpyUnifiedOpts. Every request reaches the streams the same way — Plan builds
// its tile plan, Enqueue replays a plan built for it, Run does both and
// drains the engine — so a new routine is one request type plus one
// planner. A request resolves to one plan.Key, which holds no scheduling
// knob: a comparator's fixed runtime costs belong to its plan routine
// (GemmBlasxOpts plans "gemm-blasx"). On a backed context a request whose
// written operand shares storage with another is rejected
// (ErrAliasedOperands).
type Request interface {
	// resolve validates the operands against the context, normalizes the
	// flags and returns the call's key and plan arguments.
	resolve(c *Context) (call, error)
}

// call is a validated request: the key it is planned from (plan.Build) and
// its plan must carry, and its operands in plan argument order (a plan
// binds the first NLocs; the fixed array keeps the binding off the heap).
type call struct {
	key  plan.Key
	args [3]plan.Arg
}

// resolve validates r against the context and returns its call. On a
// backed context it also rejects aliased operands (ErrAliasedOperands);
// timing-only operands carry no storage to alias.
func (c *Context) resolve(r Request) (call, error) {
	cl, err := r.resolve(c)
	if err == nil && c.backed {
		err = cl.checkAliases()
	}
	return cl, err
}

// ErrPlanMismatch reports a replay of a plan that was not built for the
// request (or of no plan at all).
var ErrPlanMismatch = errors.New("sched: plan does not match the request")

// Plan validates the request and builds its tile plan without touching
// the streams. The plan depends only on the request's key (and, for the
// no-reuse and cuBLASXt comparators, the free device memory that sizes
// their staging), so it can be replayed with Enqueue.
func (c *Context) Plan(r Request) (*plan.Plan, error) {
	cl, err := c.resolve(r)
	if err != nil {
		return nil, err
	}
	return plan.Build(cl.key, c.freeBytes())
}

// Enqueue replays p on the context's streams without draining the engine.
// The request must validate and p must have been built for it: p.Key must
// equal the request's key, or Enqueue returns ErrPlanMismatch naming the
// first differing field. The replay is event-identical to running the
// request directly.
func (c *Context) Enqueue(p *plan.Plan, r Request) (*PendingGemm, error) {
	cl, err := c.resolve(r)
	if err != nil {
		return nil, err
	}
	if p == nil {
		return nil, fmt.Errorf("%w (%s: nil plan)", ErrPlanMismatch, cl.key.Routine)
	}
	if p.Key != cl.key {
		return nil, fmt.Errorf("%w (%s: %s differs)", ErrPlanMismatch, cl.key.Routine, keyDiff(p.Key, cl.key))
	}
	return c.enqueuePlan(p, cl.args[:p.NLocs])
}

// Run plans and enqueues the request, drains the engine and reports the
// run. Ragged edge tiles (dimensions not divisible by T) are handled. A
// failed drain (a job error such as a non-SPD tile, naming the plan op) is
// returned wrapped with the routine name.
// The request is validated once: a plan just built from it carries its
// key, so the replay skips the key check Enqueue makes.
func (c *Context) Run(r Request) (Result, error) {
	cl, err := c.resolve(r)
	if err != nil {
		return Result{}, err
	}
	p, err := plan.Build(cl.key, c.freeBytes())
	if err != nil {
		return Result{}, err
	}
	pend, err := c.enqueuePlan(p, cl.args[:p.NLocs])
	if err != nil {
		return Result{}, err
	}
	end, err := c.rt.Sync()
	res := pend.Finish(end)
	if err != nil {
		return Result{}, fmt.Errorf("sched: %s: %w", cl.key.Routine, err)
	}
	return res, nil
}

// keyDiff names the first field in which two plan keys differ.
func keyDiff(got, want plan.Key) string {
	switch {
	case got.Routine != want.Routine:
		return "routine"
	case got.Dtype != want.Dtype:
		return "dtype"
	case got.TransA != want.TransA:
		return "TransA"
	case got.TransB != want.TransB:
		return "TransB"
	case got.Diag != want.Diag:
		return "diag"
	case got.M != want.M:
		return "m"
	case got.N != want.N:
		return "n"
	case got.K != want.K:
		return "k"
	case got.T != want.T:
		return "T"
	case got.Alpha != want.Alpha:
		return "alpha"
	case got.Beta != want.Beta:
		return "beta"
	case got.NLocs != want.NLocs:
		return "location count"
	}
	for i := range got.Locs {
		if got.Locs[i] != want.Locs[i] {
			return fmt.Sprintf("location %d", i)
		}
	}
	return "nothing"
}

// PendingGemm is an enqueued-but-not-drained request: every transfer and
// kernel is on its streams, but the virtual clock has not been run. Every
// routine's Enqueue returns it; the name predates the other routines.
// It exists so cooperating schedulers (the multi-GPU layer) can enqueue
// several schedules that then execute concurrently on a shared clock.
// A context supports one pending run at a time: the pending run borrows
// the context's reusable replay scratch, which the next enqueue reclaims.
type PendingGemm struct {
	ctx    *Context
	res    Result
	pooled []*cudart.DevBuffer
	start  float64
}

// Finish releases the pending run's pooled buffers and returns its
// result with the makespan measured to `end`. Call it exactly once, after
// the Sync that drained the shared engine (and, on a backed context, ran
// the replay's job, which works in those buffers).
func (p *PendingGemm) Finish(end float64) Result {
	for _, b := range p.pooled {
		p.ctx.Release(b)
	}
	p.pooled = nil
	p.res.Seconds = end - p.start
	return p.res
}

// OnDrained enqueues fn to run when all work enqueued so far on the
// context's streams has completed (used to timestamp a pending run's own
// completion inside a larger concurrent batch). The callback runs on the
// context's drain stream, created on first use.
func (c *Context) OnDrained(fn func()) {
	if c.drain == nil {
		c.drain = c.rt.NewStream()
	}
	for _, st := range c.streams {
		c.drain.WaitEvent(st.Record())
	}
	c.drain.Callback(fn)
}

// enqueuePlan replays a validated plan on the context's streams without
// draining the engine, with the kernel durations of the device's GPU model.
func (c *Context) enqueuePlan(p *plan.Plan, args []plan.Arg) (*PendingGemm, error) {
	res := Result{T: p.T, Subkernels: p.Subkernels, BytesH2D: p.BytesH2D, BytesD2H: p.BytesD2H}
	start := c.rt.Now()
	pooled, err := c.exec.Run(p, &c.rt.Device().Testbed().GPU, c.target(p), args)
	if err != nil {
		return nil, err
	}
	return &PendingGemm{ctx: c, res: res, pooled: pooled, start: start}, nil
}
