package core

import (
	"strings"
	"testing"

	"repro/internal/faults"
)

// TestConfigValidateRejectsOutOfRange pins the config guard: negative
// knobs and out-of-range fault rates must be rejected before any run
// starts, via both Validate and the Run entry point.
func TestConfigValidateRejectsOutOfRange(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"negative workers", func(c *Config) { c.Workers = -2 }, "Workers"},
		{"negative sigma0", func(c *Config) { c.Sigma0 = -1 }, "Sigma0"},
		{"negative beta", func(c *Config) { c.Beta = -0.5 }, "Beta"},
		{"negative deadline", func(c *Config) { c.RunDeadlineSteps = -7 }, "RunDeadlineSteps"},
		{"negative endpoints", func(c *Config) { c.Endpoints = -1 }, "Endpoints"},
		{"fault rate above 1", func(c *Config) { c.Faults.CrashRate = 1.5 }, "crash rate 1.5"},
		{"negative fault rate", func(c *Config) { c.Faults.HangRate = -0.1 }, "hang rate -0.1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := pbzipConfig(t)
			tc.mut(&cfg)
			err := cfg.validate()
			if err == nil {
				t.Fatal("Validate accepted the config")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not name %q", err, tc.want)
			}
			if _, rerr := Run(cfg); rerr == nil {
				t.Error("Run accepted the config Validate rejected")
			}
		})
	}
}

// TestConfigValidateAcceptsWorkingConfigs keeps the guard from drifting
// into rejecting configs the rest of the suite runs every day.
func TestConfigValidateAcceptsWorkingConfigs(t *testing.T) {
	cfg := pbzipConfig(t)
	if err := cfg.validate(); err != nil {
		t.Errorf("base config rejected: %v", err)
	}
	cfg.Faults = faults.Composite(1, 1.0)
	cfg.Workers = 8
	if err := cfg.validate(); err != nil {
		t.Errorf("full-rate composite config rejected: %v", err)
	}
}
