package lib

import "testing"

func TestOwnTestOnly(t *testing.T) {
	if OwnTestOnly() != 1 {
		t.Fatal("OwnTestOnly")
	}
}

func TestFields(t *testing.T) {
	if (Config{TestOnly: 2}).Sum() != 2 {
		t.Fatal("Sum")
	}
	var c Counter
	c.Touch()
	if c.calls.Load() != 1 {
		t.Fatal("calls")
	}
}
