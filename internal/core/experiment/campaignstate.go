package experiment

import (
	"encoding/json"
	"fmt"

	"rrdps/internal/core/behavior"
	"rrdps/internal/core/exposure"
	"rrdps/internal/core/status"
	"rrdps/internal/dnsmsg"
)

// Campaign kinds, as recorded in every checkpoint's cursor blob.
const (
	CampaignKindDynamics = cursorKindDynamics
	CampaignKindResidual = cursorKindResidual
)

// DynamicsState is the externally consumable slice of a Dynamics
// campaign cursor: the classification and behaviour products a lookup
// service answers from, without the process internals (resolver health,
// accounting, RNG position) a resuming campaign also needs. The
// campaign cursor embeds it, so its JSON keys are the cursor's own.
type DynamicsState struct {
	// WorldDay is the world clock as of the cursor; NextDay the next
	// collection-loop index (== collected days so far).
	WorldDay int `json:"world_day"`
	NextDay  int `json:"next_day"`
	// Adoptions is every apex's latest Table III verdict.
	Adoptions map[dnsmsg.Name]status.Adoption `json:"adoptions"`
	// HaveTracker guards Tracker: the behaviour FSM exists only after the
	// first collected day.
	HaveTracker bool `json:"have_tracker"`
	// Tracker carries per-apex detections, closed pause windows, and
	// still-open pauses — the per-domain DPS history.
	Tracker behavior.TrackerState `json:"tracker"`
	// Breakdowns are the per-day Fig. 2 adoption aggregates.
	Breakdowns []AdoptionBreakdown `json:"breakdowns"`
}

// ResidualState is the Residual campaign counterpart: the §V hidden-
// record products by week, likewise embedded in the cursor.
type ResidualState struct {
	// WorldDay is the world clock as of the cursor; NextWeek the next
	// scan week (Weeks+1 once the campaign finished).
	WorldDay int `json:"world_day"`
	NextWeek int `json:"next_week"`
	// NameserverCount is the discovered NS-rerouting nameserver count
	// (the paper's 391 equivalent).
	NameserverCount int `json:"nameserver_count"`
	// Cloudflare / Incapsula hold the per-week Fig. 8 filtering reports,
	// hidden records included.
	Cloudflare []WeeklyReport `json:"cloudflare"`
	Incapsula  []WeeklyReport `json:"incapsula"`
	// CFExposure / IncExposure are the week-over-week exposure tracker
	// states (Fig. 9 timelines).
	CFExposure  []exposure.WeekState `json:"cf_exposure"`
	IncExposure []exposure.WeekState `json:"inc_exposure"`
}

// CampaignState is the decoded form of a checkpoint's campaign cursor
// blob. Exactly one of Dynamics/Residual is non-nil, matching Kind.
type CampaignState struct {
	Kind     string
	Dynamics *DynamicsState
	Residual *ResidualState
	// Scenario is the provenance of the scenario spec that configured
	// the campaign, nil for flag-driven runs.
	Scenario *ScenarioInfo
}

// WorldDay returns the cursor's world clock regardless of kind.
func (c CampaignState) WorldDay() int {
	switch {
	case c.Dynamics != nil:
		return c.Dynamics.WorldDay
	case c.Residual != nil:
		return c.Residual.WorldDay
	}
	return 0
}

// DecodeCampaignState decodes the campaign blob a snapdisk checkpoint
// or WAL footer carries. It accepts both cursor kinds; anything
// else — including a blob from a newer format — is an error, never a
// silently empty state.
func DecodeCampaignState(blob []byte) (CampaignState, error) {
	var kind struct {
		Kind string `json:"kind"`
	}
	if err := json.Unmarshal(blob, &kind); err != nil {
		return CampaignState{}, fmt.Errorf("experiment: decode campaign state: %w", err)
	}
	// The states are copied out of the cursors so an epoch does not pin
	// the process state (health, metrics, counters) it never reads.
	switch kind.Kind {
	case cursorKindDynamics:
		cur, err := decodeCursor[dynamicsCursor](blob, kind.Kind)
		if err != nil {
			return CampaignState{}, err
		}
		st := cur.DynamicsState
		return CampaignState{Kind: cur.Kind, Scenario: cur.Scenario, Dynamics: &st}, nil
	case cursorKindResidual:
		cur, err := decodeCursor[residualCursor](blob, kind.Kind)
		if err != nil {
			return CampaignState{}, err
		}
		st := cur.ResidualState
		return CampaignState{Kind: cur.Kind, Scenario: cur.Scenario, Residual: &st}, nil
	default:
		return CampaignState{}, fmt.Errorf("experiment: unknown campaign cursor kind %q", kind.Kind)
	}
}
