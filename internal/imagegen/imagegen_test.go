package imagegen

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"testing"

	"repro/internal/wavelet"
)

func TestGenerateAllKinds(t *testing.T) {
	for _, k := range []Kind{SpectralField, Grating, Checkerboard, Gradient, Mixture} {
		img, err := Generate(32, 48, 1, Options{Kind: k})
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		rows, cols := img.Dims()
		if rows != 32 || cols != 48 {
			t.Fatalf("%v: dims %dx%d", k, rows, cols)
		}
		var peak float64
		for _, row := range img {
			for _, v := range row {
				if math.IsNaN(v) {
					t.Fatalf("%v: NaN sample", k)
				}
				if a := math.Abs(v); a > peak {
					peak = a
				}
			}
		}
		if peak > 0.951 || peak < 0.5 {
			t.Fatalf("%v: peak %g, want ~0.95", k, peak)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, _ := Generate(16, 16, 7, Options{Kind: SpectralField})
	b, _ := Generate(16, 16, 7, Options{Kind: SpectralField})
	for r := range a {
		for c := range a[r] {
			if a[r][c] != b[r][c] {
				t.Fatal("same seed must reproduce")
			}
		}
	}
	c, _ := Generate(16, 16, 8, Options{Kind: SpectralField})
	same := true
	for r := range a {
		for cc := range a[r] {
			if a[r][cc] != c[r][cc] {
				same = false
			}
		}
	}
	if same {
		t.Fatal("different seeds should differ")
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := Generate(1, 16, 0, Options{}); err == nil {
		t.Fatal("tiny image should fail")
	}
	if _, err := Generate(16, 16, 0, Options{Kind: Kind(99)}); err == nil {
		t.Fatal("unknown kind should fail")
	}
}

func TestSpectralFieldHasLowFrequencyBias(t *testing.T) {
	// 1/f fields concentrate energy at low frequencies: compare energy of
	// the image against energy of its horizontal difference (a high-pass);
	// for red spectra the difference energy is much smaller.
	img, err := Generate(64, 64, 3, Options{Kind: SpectralField, Alpha: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	var e, ed float64
	for r := 0; r < 64; r++ {
		for c := 0; c < 63; c++ {
			e += img[r][c] * img[r][c]
			d := img[r][c+1] - img[r][c]
			ed += d * d
		}
	}
	if ed > 0.5*e {
		t.Fatalf("difference energy %g vs %g: spectrum not low-frequency biased", ed, e)
	}
}

func TestCorpusCountAndVariety(t *testing.T) {
	imgs, err := NoiseCorpus(12, 16, 16, 99)
	if err != nil {
		t.Fatal(err)
	}
	if len(imgs) != 12 {
		t.Fatalf("count %d", len(imgs))
	}
	// At least two different images.
	diff := false
	for r := range imgs[0] {
		for c := range imgs[0][r] {
			if imgs[0][r][c] != imgs[1][r][c] {
				diff = true
			}
		}
	}
	if !diff {
		t.Fatal("corpus images should differ")
	}
}

// ReadPGM decodes an 8-bit binary PGM into an image scaled to [0, 1]: the
// reference WritePGM's output is read back with.
func ReadPGM(r io.Reader) (wavelet.Image, error) {
	br := bufio.NewReader(r)
	var magic string
	if _, err := fmt.Fscan(br, &magic); err != nil {
		return nil, fmt.Errorf("imagegen: reading magic: %w", err)
	}
	if magic != "P5" {
		return nil, fmt.Errorf("imagegen: unsupported magic %q", magic)
	}
	var cols, rows, maxval int
	if _, err := fmt.Fscan(br, &cols, &rows, &maxval); err != nil {
		return nil, fmt.Errorf("imagegen: reading header: %w", err)
	}
	if cols <= 0 || rows <= 0 || maxval <= 0 || maxval > 255 {
		return nil, fmt.Errorf("imagegen: bad header %dx%d max %d", cols, rows, maxval)
	}
	// Single whitespace byte separates header from data.
	if _, err := br.ReadByte(); err != nil {
		return nil, err
	}
	img := wavelet.NewImage(rows, cols)
	buf := make([]byte, cols)
	for r := 0; r < rows; r++ {
		if _, err := io.ReadFull(br, buf); err != nil {
			return nil, fmt.Errorf("imagegen: reading row %d: %w", r, err)
		}
		for c, b := range buf {
			img[r][c] = float64(b) / float64(maxval)
		}
	}
	return img, nil
}

func TestPGMRoundtrip(t *testing.T) {
	img, err := Generate(24, 16, 5, Options{Kind: Mixture})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WritePGM(&buf, img, -1, 1); err != nil {
		t.Fatal(err)
	}
	back, err := ReadPGM(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rows, cols := back.Dims()
	if rows != 24 || cols != 16 {
		t.Fatalf("roundtrip dims %dx%d", rows, cols)
	}
	// back is in [0,1]; original mapped from [-1,1]: back ~ (img+1)/2
	// within 8-bit precision.
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			want := (img[r][c] + 1) / 2
			if math.Abs(back[r][c]-want) > 1.0/255 {
				t.Fatalf("(%d,%d): %g vs %g", r, c, back[r][c], want)
			}
		}
	}
}

func TestWritePGMErrors(t *testing.T) {
	var buf bytes.Buffer
	img, _ := Generate(8, 8, 1, Options{})
	if err := WritePGM(&buf, img, 1, 1); err == nil {
		t.Fatal("bad range should fail")
	}
	if err := WritePGM(&buf, nil, 0, 1); err == nil {
		t.Fatal("empty image should fail")
	}
}

func TestReadPGMErrors(t *testing.T) {
	if _, err := ReadPGM(bytes.NewBufferString("P6\n2 2\n255\nxxxx")); err == nil {
		t.Fatal("wrong magic should fail")
	}
	if _, err := ReadPGM(bytes.NewBufferString("P5\n0 2\n255\n")); err == nil {
		t.Fatal("zero dims should fail")
	}
	if _, err := ReadPGM(bytes.NewBufferString("P5\n4 4\n255\nxx")); err == nil {
		t.Fatal("truncated data should fail")
	}
}

func TestKindStrings(t *testing.T) {
	for _, k := range []Kind{SpectralField, Grating, Checkerboard, Gradient, Mixture} {
		if k.String() == "" {
			t.Fatal("empty kind string")
		}
	}
}

func TestNoiseCorpus(t *testing.T) {
	imgs, err := NoiseCorpus(6, 16, 16, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(imgs) != 6 {
		t.Fatalf("count %d", len(imgs))
	}
	for i, im := range imgs {
		r, c := im.Dims()
		if r != 16 || c != 16 {
			t.Fatalf("image %d dims %dx%d", i, r, c)
		}
	}
}
