package lib

import "testing"

func TestOwnTestOnly(t *testing.T) {
	if OwnTestOnly() != 1 {
		t.Fatal("OwnTestOnly")
	}
}
