package engine

import "testing"

func TestValidate(t *testing.T) {
	for _, integ := range []string{"", "exact", "leap"} {
		if err := (Config{Integrator: integ}).Validate(); err != nil {
			t.Errorf("integrator %q rejected: %v", integ, err)
		}
	}
	if err := (Config{Integrator: "warp"}).Validate(); err == nil {
		t.Error("unknown integrator accepted")
	}
}
