package exact

import (
	"fmt"
	"math"
	"strconv"
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
