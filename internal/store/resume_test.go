package store

import "testing"

// TestParseWindow pins the -replay-window syntax: "from:to" with either side
// optional, a bare "N" meaning from N on, and surrounding spaces ignored.
func TestParseWindow(t *testing.T) {
	const open = int64(1) << 62
	for _, tc := range []struct {
		in       string
		from, to int64
	}{
		{"", 0, open},
		{":", 0, open},
		{"5000:", 5000, open},
		{":10", 0, 10},
		{"7", 7, open},
		{" 3 : 9 ", 3, 9},
	} {
		from, to, err := ParseWindow(tc.in)
		if err != nil || from != tc.from || to != tc.to {
			t.Errorf("ParseWindow(%q) = %d, %d, %v; want %d, %d, nil", tc.in, from, to, err, tc.from, tc.to)
		}
	}
	for _, in := range []string{"10:5", "x:1", "1:y", "1:2:3"} {
		if from, to, err := ParseWindow(in); err == nil {
			t.Errorf("ParseWindow(%q) = %d, %d, nil; want an error", in, from, to)
		}
	}
}
