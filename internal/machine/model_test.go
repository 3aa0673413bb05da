package machine

import "testing"

func TestFactorizations(t *testing.T) {
	f3 := Factorizations3(12)
	seen := map[[3]int]bool{}
	for _, f := range f3 {
		if f[0]*f[1]*f[2] != 12 {
			t.Fatalf("bad factorization %v", f)
		}
		if seen[f] {
			t.Fatalf("duplicate factorization %v", f)
		}
		seen[f] = true
	}
	if !seen[[3]int{1, 3, 4}] || !seen[[3]int{12, 1, 1}] {
		t.Fatal("missing expected factorizations")
	}
	if got := len(Factorizations2(16)); got != 5 {
		t.Fatalf("Factorizations2(16) = %d, want 5", got)
	}
	if LCM(4, 6) != 12 || gcd(12, 18) != 6 {
		t.Fatal("lcm/gcd wrong")
	}
}

func TestCostTimeConversions(t *testing.T) {
	model := CostModel{Alpha: 1e-6, Beta: 1e-9, Gamma: 1e-9}
	c := Cost{Bytes: 1000, Msgs: 10, Flops: 500}
	wantComm := 10*1e-6 + 1000*1e-9
	if got := c.commTime(model); got != wantComm {
		t.Fatalf("comm time %g want %g", got, wantComm)
	}
	if got := c.Time(model); got != wantComm+500*1e-9 {
		t.Fatalf("total time %g", got)
	}
	a := Cost{Bytes: 5, Msgs: 20, Flops: 1}
	mx := c.Max(a)
	if mx.Bytes != 1000 || mx.Msgs != 20 || mx.Flops != 500 {
		t.Fatalf("max wrong: %v", mx)
	}
	if c.Add(a).Bytes != 1005 {
		t.Fatal("add wrong")
	}
}
