package policy

import (
	"fmt"

	"kelp/internal/core"
	"kelp/internal/events"
	"kelp/internal/node"
	"kelp/internal/perfmon"
)

// degradeState bundles the degradation watchdog with its event emission
// for the baseline controllers (CoreThrottle, MBA, SLO). The Kelp runtime
// in internal/core carries the same machinery inline; this keeps the three
// policy controllers from each reimplementing it.
type degradeState struct {
	name  string
	guard core.Guard
}

func newDegradeState(name string, k, j int) degradeState {
	return degradeState{name: name, guard: core.NewGuard(k, j)}
}

// fault scores one faulted period and reports whether the controller just
// entered fail-safe mode (emitting degrade.enter when it did). The caller
// applies its own fail-safe configuration on a true return.
func (d *degradeState) fault(n *node.Node, now float64) (entered bool) {
	if !d.guard.Fault() {
		return false
	}
	if rec := n.Events(); rec.Enabled() {
		rec.Emit(now, events.DegradeEnter, d.name, map[string]any{
			"controller":         d.name,
			"consecutive_faults": d.guard.EnterAfter,
		})
	}
	return true
}

// clean scores one clean period, emitting degrade.exit when the controller
// just recovered.
func (d *degradeState) clean(n *node.Node, now float64) (exited bool) {
	if !d.guard.Clean() {
		return false
	}
	if rec := n.Events(); rec.Enabled() {
		rec.Emit(now, events.DegradeExit, d.name, map[string]any{
			"controller":    d.name,
			"clean_periods": d.guard.ExitAfter,
		})
	}
	return true
}

// reject emits sensor.reject for a sample the sanitizer refused.
func (d *degradeState) reject(n *node.Node, now float64, err error) {
	if rec := n.Events(); rec.Enabled() {
		rec.Emit(now, events.SensorReject, d.name, map[string]any{
			"reason": err.Error(),
		})
	}
}

// actuateError emits actuate.error for an enforcement write that failed
// after read-back verification and retry.
func (d *degradeState) actuateError(n *node.Node, now float64, err error) {
	if rec := n.Events(); rec.Enabled() {
		rec.Emit(now, events.ActuateError, d.name, map[string]any{
			"error": err.Error(),
		})
	}
}

// ThrottlerState is an opaque snapshot of a Throttler's control state, used
// by the experiments layer's warm-started sweep cells.
type ThrottlerState struct {
	cur     int
	deg     degradeState
	history []ThrottlerDecision
}

// Snapshot captures the throttler's control state.
func (t *Throttler) Snapshot() ThrottlerState {
	return ThrottlerState{
		cur:     t.cur,
		deg:     t.deg,
		history: append([]ThrottlerDecision(nil), t.history...),
	}
}

// Restore installs a snapshot taken by Snapshot on a throttler built from
// the same configuration. It does not actuate: the node snapshot restores
// the cgroup state the throttler had enforced.
func (t *Throttler) Restore(st ThrottlerState) {
	t.cur = st.cur
	t.deg = st.deg
	t.history = append(t.history[:0], st.history...)
}

// MBAState is an opaque snapshot of an MBAController's control state.
type MBAState struct {
	cur     int
	deg     degradeState
	history []MBADecision
}

// Snapshot captures the MBA controller's control state.
func (c *MBAController) Snapshot() MBAState {
	return MBAState{
		cur:     c.cur,
		deg:     c.deg,
		history: append([]MBADecision(nil), c.history...),
	}
}

// Restore installs a snapshot taken by Snapshot on a controller built from
// the same configuration.
func (c *MBAController) Restore(st MBAState) {
	c.cur = st.cur
	c.deg = st.deg
	c.history = append(c.history[:0], st.history...)
}

// ControllerState is a snapshot of every controller an Applied policy
// installed; a nil field means the policy installed no such controller.
type ControllerState struct {
	Runtime   *core.RuntimeState
	Throttler *ThrottlerState
	MBA       *MBAState
}

// Snapshot captures the policy's controller state. A nil Applied has no
// controllers.
func (a *Applied) Snapshot() ControllerState {
	var st ControllerState
	if a == nil {
		return st
	}
	if a.Runtime != nil {
		rt := a.Runtime.Snapshot()
		st.Runtime = &rt
	}
	if a.Throttler != nil {
		th := a.Throttler.Snapshot()
		st.Throttler = &th
	}
	if a.MBA != nil {
		mc := a.MBA.Snapshot()
		st.MBA = &mc
	}
	return st
}

// Restore installs a snapshot taken by Snapshot on a policy applied with
// the same configuration. It restores nothing and fails when the snapshot
// holds a different set of controllers than the policy installed.
func (a *Applied) Restore(st ControllerState) error {
	var none Applied
	if a == nil {
		a = &none
	}
	if (st.Runtime != nil) != (a.Runtime != nil) ||
		(st.Throttler != nil) != (a.Throttler != nil) ||
		(st.MBA != nil) != (a.MBA != nil) {
		return fmt.Errorf("policy: snapshot controller set does not match the applied policy")
	}
	if st.Runtime != nil {
		a.Runtime.Restore(*st.Runtime)
	}
	if st.Throttler != nil {
		a.Throttler.Restore(*st.Throttler)
	}
	if st.MBA != nil {
		a.MBA.Restore(*st.MBA)
	}
	return nil
}

// sanityBounds derives sample plausibility limits from the throttler-style
// watermarks, mirroring core.Watermarks.SanityBounds.
func (w ThrottlerWatermarks) sanityBounds() perfmon.Bounds {
	return perfmon.Bounds{
		MaxBW:      16 * w.SocketBWHigh,
		MaxLatency: 64 * w.LatencyHigh,
	}
}
