package main

import (
	"testing"

	qucloud "repro"
)

func TestParseStrategy(t *testing.T) {
	cases := map[string]qucloud.Strategy{
		"separate":   qucloud.Separate,
		"sabre":      qucloud.SABRE,
		"baseline":   qucloud.Baseline,
		"frp":        qucloud.Baseline,
		"cdap+xswap": qucloud.CDAPXSwap,
		"QuCloud":    qucloud.CDAPXSwap,
		"cdap":       qucloud.CDAPOnly,
		"xswap":      qucloud.XSwapOnly,
	}
	for in, want := range cases {
		got, err := parseStrategy(in)
		if err != nil || got != want {
			t.Fatalf("parseStrategy(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := parseStrategy("nope"); err == nil {
		t.Fatal("unknown strategy must error")
	}
}

func TestMultiFlag(t *testing.T) {
	var m multiFlag
	if err := m.Set("a.qasm"); err != nil {
		t.Fatal(err)
	}
	if err := m.Set("b.qasm"); err != nil {
		t.Fatal(err)
	}
	if m.String() != "a.qasm,b.qasm" || len(m) != 2 {
		t.Fatalf("multiFlag = %v", m)
	}
}
