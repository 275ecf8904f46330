package fixed

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFormatValidate(t *testing.T) {
	if err := NewFormat(4, 12).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Format{
		{Int: 0, Frac: 4},
		{Int: 2, Frac: -1},
		{Int: 32, Frac: 32},
	}
	for _, f := range bad {
		if f.Validate() == nil {
			t.Errorf("format %v should be invalid", f)
		}
	}
}

func TestFromFloatRounding(t *testing.T) {
	ftr := Format{Int: 4, Frac: 2, Round: Truncate, Overflow: Saturate}
	frn := Format{Int: 4, Frac: 2, Round: RoundNearest, Overflow: Saturate}
	fce := Format{Int: 4, Frac: 2, Round: RoundConvergent, Overflow: Saturate}
	// 0.3 * 4 = 1.2 -> trunc 1, nearest 1; 0.4*4 = 1.6 -> trunc 1, nearest 2.
	if FromFloat(0.3, ftr).Raw != 1 || FromFloat(0.4, ftr).Raw != 1 {
		t.Fatal("truncate")
	}
	if FromFloat(0.3, frn).Raw != 1 || FromFloat(0.4, frn).Raw != 2 {
		t.Fatal("round nearest")
	}
	// Halfway cases: 0.375*4 = 1.5 -> nearest 2, convergent 2 (even); 0.625*4=2.5 -> nearest 3, convergent 2.
	if FromFloat(0.375, frn).Raw != 2 || FromFloat(0.625, frn).Raw != 3 {
		t.Fatal("round nearest halfway")
	}
	if FromFloat(0.375, fce).Raw != 2 || FromFloat(0.625, fce).Raw != 2 {
		t.Fatal("convergent halfway")
	}
	// Negative truncation goes toward -inf.
	if FromFloat(-0.3, ftr).Raw != -2 {
		t.Fatalf("truncate(-0.3) raw %d, want -2", FromFloat(-0.3, ftr).Raw)
	}
}

func TestFromFloatSaturation(t *testing.T) {
	f := NewFormat(4, 4)
	if v := FromFloat(100, f); v.Raw != f.MaxRaw() {
		t.Fatalf("positive saturation raw %d", v.Raw)
	}
	if v := FromFloat(-100, f); v.Raw != f.MinRaw() {
		t.Fatalf("negative saturation raw %d", v.Raw)
	}
}

func TestFromFloatWrap(t *testing.T) {
	f := Format{Int: 4, Frac: 0, Round: RoundNearest, Overflow: Wrap}
	// 4-bit word: range [-8, 7]. 8 wraps to -8; 9 wraps to -7.
	if v := FromFloat(8, f); v.Raw != -8 {
		t.Fatalf("wrap(8) raw %d", v.Raw)
	}
	if v := FromFloat(9, f); v.Raw != -7 {
		t.Fatalf("wrap(9) raw %d", v.Raw)
	}
	if v := FromFloat(-9, f); v.Raw != 7 {
		t.Fatalf("wrap(-9) raw %d", v.Raw)
	}
}

func TestFloatRoundtripExact(t *testing.T) {
	f := NewFormat(8, 12)
	f2 := func(raw int64) bool {
		raw = raw % f.MaxRaw()
		v := Value{Raw: raw, Fmt: f}
		return FromFloat(v.Float(), f).Raw == raw
	}
	if err := quick.Check(f2, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuantizerModes(t *testing.T) {
	qt := NewQuantizer(2, Truncate)
	qr := NewQuantizer(2, RoundNearest)
	qc := NewQuantizer(2, RoundConvergent)
	if qt.Apply(0.3) != 0.25 || qt.Apply(-0.3) != -0.5 {
		t.Fatal("truncate grid")
	}
	if qr.Apply(0.3) != 0.25 || qr.Apply(0.4) != 0.5 {
		t.Fatal("nearest grid")
	}
	if qc.Apply(0.375) != 0.5 || qc.Apply(0.625) != 0.5 {
		t.Fatal("convergent grid")
	}
	if qt.inv != 0.25 || qt.frac != 2 || qt.mode != Truncate {
		t.Fatal("accessors")
	}
}

func TestRequantizeRoundModes(t *testing.T) {
	// Value 5 at 2 fractional bits (=1.25) requantized to 0 fractional bits.
	cases := []struct {
		raw  int64
		mode RoundMode
		want int64
	}{
		{5, Truncate, 1},        // 1.25 -> 1
		{5, RoundNearest, 1},    // 1.25 -> 1
		{6, RoundNearest, 2},    // 1.5 -> 2 (half up)
		{6, RoundConvergent, 2}, // 1.5 -> 2 (even)
		{2, RoundConvergent, 0}, // 0.5 -> 0 (even)
		{-5, Truncate, -2},      // -1.25 -> -2 (toward -inf)
		{-6, RoundNearest, -1},  // -1.5 -> -1 (half up on raw)
	}
	for _, c := range cases {
		got := NewQuantizer(0, c.mode).Apply(math.Ldexp(float64(c.raw), -2))
		if got != float64(c.want) {
			t.Errorf("requantize(%d, frac 2 -> 0, %v) = %g, want %d", c.raw, c.mode, got, c.want)
		}
	}
}

func TestQuantizerErrorBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, mode := range []RoundMode{Truncate, RoundNearest, RoundConvergent} {
		q := NewQuantizer(10, mode)
		step := q.inv
		for i := 0; i < 2000; i++ {
			x := rng.NormFloat64() * 3
			e := x - q.Apply(x)
			switch mode {
			case Truncate:
				if e < 0 || e >= step {
					t.Fatalf("%v: error %g outside [0, %g)", mode, e, step)
				}
			default:
				if e < -step/2-1e-15 || e > step/2+1e-15 {
					t.Fatalf("%v: error %g outside +-%g/2", mode, e, step)
				}
			}
		}
	}
}

func TestQuantizerMatchesValuePath(t *testing.T) {
	// The float grid quantizer and the int64 Value path must agree exactly.
	fn := func(x float64) bool {
		x = math.Mod(x, 7)
		if math.IsNaN(x) {
			return true
		}
		for _, mode := range []RoundMode{Truncate, RoundNearest, RoundConvergent} {
			q := NewQuantizer(12, mode)
			f := Format{Int: 8, Frac: 12, Round: mode, Overflow: Saturate}
			if q.Apply(x) != FromFloat(x, f).Float() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuantizerIdempotent(t *testing.T) {
	fn := func(x float64) bool {
		x = math.Mod(x, 100)
		if math.IsNaN(x) {
			return true
		}
		q := NewQuantizer(16, RoundNearest)
		y := q.Apply(x)
		return q.Apply(y) == y
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuantizerSliceHelpers(t *testing.T) {
	q := NewQuantizer(1, Truncate)
	x := []float64{0.4, 0.9, -0.4}
	q.ApplySlice(x)
	if x[0] != 0 || x[1] != 0.5 || x[2] != -0.5 {
		t.Fatalf("ApplySlice = %v", x)
	}
}

func TestNewQuantizerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for frac > 52")
		}
	}()
	NewQuantizer(53, Truncate)
}

func TestModeStrings(t *testing.T) {
	if Truncate.String() != "truncate" || RoundNearest.String() != "round-nearest" ||
		RoundConvergent.String() != "round-convergent" {
		t.Fatal("round mode strings")
	}
	if Saturate.String() != "saturate" || Wrap.String() != "wrap" {
		t.Fatal("overflow mode strings")
	}
}

func BenchmarkQuantizerApply(b *testing.B) {
	q := NewQuantizer(12, RoundNearest)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = q.Apply(float64(i) * 1e-3)
	}
}
