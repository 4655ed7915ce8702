package testonly

import "testing"

func TestFixture(t *testing.T) {
	w := &Widget{n: 1}
	if OnlyTested()+Recurse(2)+w.Count() != 2 {
		t.Fatal("fixture arithmetic")
	}
	Hook()
}
