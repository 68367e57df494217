package controlplane

import (
	"context"
	"fmt"
	"sort"

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
// telemetry, admission gate and Policy are the session controller's.
type SessionController struct {
	*Controller
	sw      *pipeline.Switch
	session *compiler.Session
	live    map[int]lang.Rule // handle -> rule, mirrors the session's live set
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
	live := make(map[int]lang.Rule, len(initial))
	for i, h := range handles {
		live[h] = initial[i]
	}
	return &SessionController{Controller: NewController(sw), sw: sw, session: sp, live: live}, handles, nil
}

// prospective materializes the rule set Churn would leave live, in
// deterministic (ascending handle, then added) order, erroring on
// handles that are not live.
func (c *SessionController) prospective(add []lang.Rule, remove []int) ([]lang.Rule, error) {
	removed := make(map[int]bool, len(remove))
	for _, h := range remove {
		if _, ok := c.live[h]; !ok {
			return nil, fmt.Errorf("controlplane: unknown rule handle %d", h)
		}
		removed[h] = true
	}
	keep := make([]int, 0, len(c.live))
	for h := range c.live {
		if !removed[h] {
			keep = append(keep, h)
		}
	}
	sort.Ints(keep)
	rules := make([]lang.Rule, 0, len(keep)+len(add))
	for _, h := range keep {
		rules = append(rules, c.live[h])
	}
	return append(rules, add...), nil
}

// Switch returns the controlled switch; packets flow through it directly
// even when SetDevice interposes a wrapper on the write path.
func (c *SessionController) Switch() *pipeline.Switch { return c.sw }

// Session returns the underlying incremental compilation session.
func (c *SessionController) Session() *compiler.Session { return c.session }

// Churn applies one subscription churn event: remove rules by handle, add
// new ones, recompile incrementally, and push only the entry delta to the
// switch. When an admission gate is installed (SetAdmission), the
// prospective full rule set (live minus removed plus added) is statically
// analyzed first and a rejected set returns an *analyze.RejectionError
// before the session or the device is touched. The install is
// Controller.Update's — admission check before any write, transient-failure
// retry, rollback to the prior program on permanent failure. After a
// failed Churn the session keeps the new rule set but the device keeps
// serving the old program; the next successful Churn converges them,
// since the delta is always computed against the installed program.
// It returns the handles of the added rules and the install delta. The
// operation is recorded as a `controlplane_churn` span whose labels
// carry the add/remove sizes and the delta's write count; the context is
// consulted between commit retries, so a canceled churn stops retrying
// and rolls the device back.
func (c *SessionController) Churn(ctx context.Context, add []lang.Rule, remove []int) ([]int, Delta, error) {
	ctx, span := c.start(ctx, "controlplane_churn",
		telemetry.L("add", fmt.Sprint(len(add))), telemetry.L("remove", fmt.Sprint(len(remove))))
	if c.gate != nil {
		rules, err := c.prospective(add, remove)
		if err != nil {
			span.EndOutcome("bad_handle", err)
			return nil, Delta{}, err
		}
		if err := admit(c.gate, rules, span); err != nil {
			span.EndOutcome("analysis_rejected", err)
			return nil, Delta{}, fmt.Errorf("controlplane: churn rejected by rule analysis: %w", err)
		}
	}
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
	// The session has accepted the mutation; mirror it. A later install
	// failure leaves the session on the new set (see doc comment), so the
	// mirror must update here, not after commit.
	for _, h := range remove {
		delete(c.live, h)
	}
	for i, h := range handles {
		c.live[h] = add[i]
	}
	newProg, err := c.session.Recompile()
	if err != nil {
		span.EndOutcome("compile_failed", err)
		return handles, Delta{}, err
	}
	delta, err := c.update(ctx, span, newProg)
	return handles, delta, err
}
