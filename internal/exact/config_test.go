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

func TestParseCap(t *testing.T) {
	good := []struct {
		in   string
		want CapSpec
	}{
		{"", CapSpec{Unlimited: true}},
		{"none", CapSpec{Unlimited: true}},
		{"unlimited", CapSpec{Unlimited: true}},
		{"1", CapSpec{Abs: 1}},
		{"1048576", CapSpec{Abs: 1048576}},
		{"1.5x", CapSpec{Factor: 1.5}},
		{"0.75x", CapSpec{Factor: 0.75}}, // below M_seq is a legal ask
		{"2x", CapSpec{Factor: 2}},
	}
	for _, tc := range good {
		got, err := ParseCap(tc.in)
		if err != nil {
			t.Errorf("ParseCap(%q): unexpected error %v", tc.in, err)
			continue
		}
		if got != tc.want {
			t.Errorf("ParseCap(%q) = %+v, want %+v", tc.in, got, tc.want)
		}
	}
	bad := []string{
		"0", "-1", "1.5", "x", "-2x", "0x", "Infx", "NaNx", "2xx", "nonex", "bytes",
	}
	for _, in := range bad {
		if got, err := ParseCap(in); err == nil {
			t.Errorf("ParseCap(%q) = %+v, want error", in, got)
		} else if !strings.Contains(err.Error(), "memory cap") {
			t.Errorf("ParseCap(%q) error %q does not mention the cap", in, err)
		}
	}
}

func TestCapSpecResolve(t *testing.T) {
	cases := []struct {
		spec CapSpec
		mseq int64
		want int64
	}{
		{CapSpec{Unlimited: true}, 100, math.MaxInt64},
		{CapSpec{Abs: 64}, 100, 64},
		{CapSpec{Factor: 1.5}, 100, 150},
		{CapSpec{Factor: 1.5}, 101, 152}, // rounds up, never undershoots
		{CapSpec{Factor: 0.5}, 101, 51},
		{CapSpec{}, 100, math.MaxInt64}, // zero value: no constraint
	}
	for _, tc := range cases {
		if got := tc.spec.Resolve(tc.mseq); got != tc.want {
			t.Errorf("(%+v).Resolve(%d) = %d, want %d", tc.spec, tc.mseq, got, tc.want)
		}
	}
}

func TestParseConfig(t *testing.T) {
	cfg, err := ParseConfig("2x1.0+2x0.5", "1.5x", "500k")
	if err != nil {
		t.Fatalf("ParseConfig: %v", err)
	}
	if cfg.Machine.P() != 4 || cfg.Machine.IsUniform() {
		t.Errorf("machine = %v, want 4 heterogeneous processors", cfg.Machine)
	}
	if cfg.Cap != (CapSpec{Factor: 1.5}) {
		t.Errorf("cap = %+v, want factor 1.5", cfg.Cap)
	}
	if cfg.Budget != 500_000 {
		t.Errorf("budget = %d, want 500000", cfg.Budget)
	}

	cfg, err = ParseConfig("3", "none", "")
	if err != nil {
		t.Fatalf("ParseConfig defaults: %v", err)
	}
	if cfg.Machine.P() != 3 || !cfg.Machine.IsUniform() {
		t.Errorf("machine = %v, want uniform p=3", cfg.Machine)
	}
	if !cfg.Cap.Unlimited {
		t.Errorf("cap = %+v, want unlimited", cfg.Cap)
	}
	if cfg.Budget != DefaultNodeBudget {
		t.Errorf("budget = %d, want DefaultNodeBudget %d", cfg.Budget, DefaultNodeBudget)
	}

	bad := []struct {
		machine, cap, budget, wantSub string
	}{
		{"", "none", "", "machine spec required"},
		{"zero", "none", "", "machine"},
		{"2", "nope", "", "memory cap"},
		{"2", "-1", "", "memory cap"},
		{"2", "none", "0", "node budget"},
		{"2", "none", "12q", "node budget"},
	}
	for _, tc := range bad {
		_, err := ParseConfig(tc.machine, tc.cap, tc.budget)
		if err == nil {
			t.Errorf("ParseConfig(%q, %q, %q): want error", tc.machine, tc.cap, tc.budget)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("ParseConfig(%q, %q, %q) error %q does not contain %q",
				tc.machine, tc.cap, tc.budget, err, tc.wantSub)
		}
	}
}
