package exact

import (
	"math"
	"strings"
	"testing"
)

func TestParseBudget(t *testing.T) {
	good := []struct {
		in   string
		want int64
	}{
		{"1", 1},
		{"42", 42},
		{"500k", 500_000},
		{"500K", 500_000},
		{"2m", 2_000_000},
		{"2M", 2_000_000},
		{"3g", 3_000_000_000},
		{"3G", 3_000_000_000},
		{"9223372036854775807", math.MaxInt64},
	}
	for _, tc := range good {
		got, err := ParseBudget(tc.in)
		if err != nil {
			t.Errorf("ParseBudget(%q): unexpected error %v", tc.in, err)
			continue
		}
		if got != tc.want {
			t.Errorf("ParseBudget(%q) = %d, want %d", tc.in, got, tc.want)
		}
	}
	bad := []string{
		"", "0", "-1", "-5k", "k", "M", "1.5", "1.5M", "10T", "abc",
		"9223372036854775808",   // int64 overflow, no suffix
		"9223372036854776k",     // overflow through the multiplier
		"100000000000000000000", // way past int64
		" 1", "1 ",
	}
	for _, in := range bad {
		if got, err := ParseBudget(in); err == nil {
			t.Errorf("ParseBudget(%q) = %d, want error", in, got)
		} else if !strings.Contains(err.Error(), "node budget") {
			t.Errorf("ParseBudget(%q) error %q does not mention the budget", in, err)
		}
	}
}
