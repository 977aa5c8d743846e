package exact

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"treesched/internal/machine"
	"treesched/internal/sched"
)

// ParseBudget parses a node-budget spec: a positive integer with an
// optional k/M/G suffix (×10³/10⁶/10⁹), e.g. "500k" or "2M". Budgets
// count explored branch-and-bound decision nodes, never wall-clock time,
// so a budget means the same search everywhere.
func ParseBudget(s string) (int64, error) {
	in := s
	mult := int64(1)
	if len(s) > 0 {
		switch s[len(s)-1] {
		case 'k', 'K':
			mult, s = 1_000, s[:len(s)-1]
		case 'm', 'M':
			mult, s = 1_000_000, s[:len(s)-1]
		case 'g', 'G':
			mult, s = 1_000_000_000, s[:len(s)-1]
		}
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil || v <= 0 || v > math.MaxInt64/mult {
		return 0, fmt.Errorf("exact: invalid node budget %q (want a positive integer with an optional k/M/G suffix, e.g. \"500k\")", in)
	}
	return v * mult, nil
}

// CapSpec is a parsed memory-cap expression. Exactly one of the three
// forms is set: Unlimited, an absolute byte count Abs, or a Factor to be
// multiplied by the tree's M_seq at resolve time.
type CapSpec struct {
	Unlimited bool
	Abs       int64
	Factor    float64
}

// ParseCap parses a memory-cap spec: "none" (or the empty string) for no
// cap, a positive integer for an absolute cap ("1048576"), or a positive
// factor with an 'x' suffix for a multiple of M_seq ("1.5x"). Factors
// below 1 are allowed — Liu's optimal traversal can beat every postorder,
// so caps below M_seq may still be feasible.
func ParseCap(s string) (CapSpec, error) {
	switch s {
	case "", "none", "unlimited":
		return CapSpec{Unlimited: true}, nil
	}
	if strings.HasSuffix(s, "x") {
		f, err := strconv.ParseFloat(strings.TrimSuffix(s, "x"), 64)
		if err != nil || !(f > 0) || math.IsInf(f, 0) {
			return CapSpec{}, capErr(s)
		}
		return CapSpec{Factor: f}, nil
	}
	abs, err := strconv.ParseInt(s, 10, 64)
	if err != nil || abs <= 0 {
		return CapSpec{}, capErr(s)
	}
	return CapSpec{Abs: abs}, nil
}

func capErr(s string) error {
	return fmt.Errorf("exact: invalid memory cap %q (want \"none\", an absolute byte count like \"1048576\", or a factor of M_seq like \"1.5x\")", s)
}

// Resolve turns the spec into an absolute cap for a tree whose best
// sequential peak is mseq. Unlimited resolves to math.MaxInt64.
func (c CapSpec) Resolve(mseq int64) int64 {
	switch {
	case c.Unlimited:
		return math.MaxInt64
	case c.Abs > 0:
		return c.Abs
	}
	return sched.CapFromFactor(c.Factor, mseq)
}

// Config is a fully parsed exact-solver invocation: the machine, the cap
// and the node budget.
type Config struct {
	Machine *machine.Model
	Cap     CapSpec
	Budget  int64
}

// ParseConfig parses the three textual knobs of an exact solve: a
// machine spec ("2", "2x1.0+2x0.5"), a cap spec (see ParseCap) and a
// budget spec (see ParseBudget; empty means DefaultNodeBudget).
func ParseConfig(machineSpec, capSpec, budgetSpec string) (Config, error) {
	if machineSpec == "" {
		return Config{}, fmt.Errorf("exact: machine spec required (a processor count like \"2\" or speed groups like \"2x1.0+2x0.5\")")
	}
	m, err := machine.ParseSpec(machineSpec)
	if err != nil {
		return Config{}, err
	}
	cap, err := ParseCap(capSpec)
	if err != nil {
		return Config{}, err
	}
	budget := DefaultNodeBudget
	if budgetSpec != "" {
		budget, err = ParseBudget(budgetSpec)
		if err != nil {
			return Config{}, err
		}
	}
	return Config{Machine: m, Cap: cap, Budget: budget}, nil
}
