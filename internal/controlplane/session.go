package controlplane

import (
	"context"
	"fmt"

	"camus/internal/compiler"
	"camus/internal/lang"
	"camus/internal/pipeline"
	"camus/internal/telemetry"
)

// SessionController couples an incremental compiler.Session with the
// delta-install machinery: the compile half of the paper's incremental
// story (BDD memoization) feeds the install half (state alignment +
// CoVisor-style entry diffing), so a churn event — a few subscriptions
// joining or leaving a large live set — costs compile work proportional
// to the change plus a delta of device writes, not a full reinstall.
//
// The install half is the embedded Controller: its device, diff base,
// telemetry and Policy are the session controller's. It runs no rule
// analysis: a rule set to be vetted first goes through analyze.Gate.Admit
// and Controller.Update.
type SessionController struct {
	*Controller
	sw      *pipeline.Switch
	session *compiler.Session
}

// NewSessionController builds a controller around an empty incremental
// session, compiles the given initial rules, and installs the resulting
// program on a fresh switch. Returned handles identify the initial rules
// for later removal via Churn.
func NewSessionController(sp *compiler.Session, initial []lang.Rule, cfg pipeline.Config) (*SessionController, []int, error) {
	handles, err := sp.AddRules(initial)
	if err != nil {
		return nil, nil, err
	}
	prog, err := sp.Recompile()
	if err != nil {
		return nil, nil, err
	}
	sw, err := pipeline.New(prog, cfg)
	if err != nil {
		return nil, nil, err
	}
	return &SessionController{Controller: NewController(sw), sw: sw, session: sp}, handles, nil
}

// Switch returns the controlled switch; packets flow through it directly
// even when SetDevice interposes a wrapper on the write path.
func (c *SessionController) Switch() *pipeline.Switch { return c.sw }

// Session returns the underlying incremental compilation session.
func (c *SessionController) Session() *compiler.Session { return c.session }

// Churn applies one subscription churn event: remove rules by handle, add
// new ones, recompile incrementally, and push only the entry delta to the
// switch. A handle that is not live fails the churn before anything
// changes. The install is Controller.Update's — resource admission before
// any write, transient-failure retry, rollback to the prior program on
// permanent failure. After a failed install the session keeps the new rule
// set but the device keeps serving the old program; the next successful
// Churn converges them, since the delta is always computed against the
// installed program. It returns the handles of the added rules and the
// install delta. The operation is recorded as a `controlplane_churn` span
// whose labels carry the add/remove sizes and the delta's write count; the
// context is consulted between commit retries, so a canceled churn stops
// retrying and rolls the device back.
func (c *SessionController) Churn(ctx context.Context, add []lang.Rule, remove []int) ([]int, Delta, error) {
	ctx, span := c.start(ctx, "controlplane_churn",
		telemetry.L("add", fmt.Sprint(len(add))), telemetry.L("remove", fmt.Sprint(len(remove))))
	if len(remove) > 0 {
		if err := c.session.RemoveRules(remove...); err != nil {
			span.EndOutcome("bad_handle", err)
			return nil, Delta{}, err
		}
	}
	var handles []int
	if len(add) > 0 {
		var err error
		handles, err = c.session.AddRules(add)
		if err != nil {
			span.EndOutcome("bad_rule", err)
			return nil, Delta{}, err
		}
	}
	newProg, err := c.session.Recompile()
	if err != nil {
		span.EndOutcome("compile_failed", err)
		return handles, Delta{}, err
	}
	delta, err := c.update(ctx, span, newProg)
	return handles, delta, err
}
