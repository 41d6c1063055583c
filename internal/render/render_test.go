package render

import (
	"bytes"
	"image/color"
	"image/png"
	"path/filepath"
	"testing"
)

var (
	white = color.RGBA{255, 255, 255, 255}
	black = color.RGBA{0, 0, 0, 255}
	red   = color.RGBA{255, 0, 0, 255}
)

func TestNewCanvas(t *testing.T) {
	c, err := NewCanvas(10, 5, black)
	if err != nil {
		t.Fatal(err)
	}
	w, h := c.Size()
	if w != 10 || h != 5 {
		t.Fatalf("Size = %d,%d", w, h)
	}
	if got := c.At(3, 3); got != black {
		t.Fatalf("background = %v", got)
	}
	if got := c.At(-1, 0); got != (color.RGBA{}) {
		t.Fatal("out of range At nonzero")
	}
	if _, err := NewCanvas(0, 5, black); err == nil {
		t.Fatal("zero width accepted")
	}
}

func TestBlendOpaque(t *testing.T) {
	c, _ := NewCanvas(4, 4, black)
	c.Blend(1, 1, white, 1)
	if got := c.At(1, 1); got != white {
		t.Fatalf("opaque blend = %v", got)
	}
}

func TestBlendHalf(t *testing.T) {
	c, _ := NewCanvas(4, 4, black)
	c.Blend(0, 0, white, 0.5)
	got := c.At(0, 0)
	if got.R < 120 || got.R > 135 {
		t.Fatalf("half blend R = %d", got.R)
	}
	// Alpha <= 0 is a no-op; > 1 clamps.
	c.Blend(1, 1, white, 0)
	if c.At(1, 1) != black {
		t.Fatal("zero alpha changed pixel")
	}
	c.Blend(2, 2, white, 5)
	if c.At(2, 2) != white {
		t.Fatal("clamped alpha not opaque")
	}
	// Out of bounds is a no-op.
	c.Blend(100, 100, white, 1)
}

func TestFillRect(t *testing.T) {
	c, _ := NewCanvas(10, 10, black)
	c.FillTrapezoid(7, 7, 2, 2, 7, 2, red, 1) // a rectangle, inverted corners fixed up
	if c.At(2, 2) != red || c.At(7, 7) != red {
		t.Fatal("rect corners not filled")
	}
	if c.At(1, 1) == red || c.At(8, 8) == red {
		t.Fatal("rect overflow")
	}
}

func TestFillTrapezoidRectangle(t *testing.T) {
	c, _ := NewCanvas(20, 20, black)
	c.FillTrapezoid(5, 5, 10, 15, 5, 10, white, 1)
	// A parallel-sided quad: middle fully covered.
	for _, x := range []int{5, 10, 15} {
		if c.At(x, 7) != white {
			t.Fatalf("pixel (%d,7) not filled", x)
		}
	}
	if c.At(10, 3) == white || c.At(10, 12) == white {
		t.Fatal("trapezoid overflow in y")
	}
}

func TestFillTrapezoidSlanted(t *testing.T) {
	c, _ := NewCanvas(20, 20, black)
	// Left segment spans 2..4, right spans 14..18 — adaptive-bin shape.
	c.FillTrapezoid(2, 2, 4, 17, 14, 18, white, 1)
	if c.At(2, 3) != white {
		t.Fatal("left edge not filled")
	}
	if c.At(17, 16) != white {
		t.Fatal("right edge not filled")
	}
	// Middle interpolates: at x≈9.5 the band is near y in [8,11].
	if c.At(10, 9) != white {
		t.Fatal("interpolated middle not filled")
	}
	if c.At(10, 2) == white {
		t.Fatal("middle filled above interpolated band")
	}
	// Swapped x order draws the same shape.
	c2, _ := NewCanvas(20, 20, black)
	c2.FillTrapezoid(17, 14, 18, 2, 2, 4, white, 1)
	for y := 0; y < 20; y++ {
		for x := 0; x < 20; x++ {
			if c.At(x, y) != c2.At(x, y) {
				t.Fatalf("swap asymmetry at (%d,%d)", x, y)
			}
		}
	}
}

func TestFillTrapezoidDegenerateVertical(t *testing.T) {
	c, _ := NewCanvas(10, 10, black)
	c.FillTrapezoid(3, 2, 8, 3, 2, 8, white, 1) // zero width -> vertical line
	if c.At(3, 5) != white {
		t.Fatal("degenerate trapezoid missing")
	}
}

func TestLine(t *testing.T) {
	c, _ := NewCanvas(10, 10, black)
	c.Line(0, 0, 9, 9, white, 1)
	for i := 0; i < 10; i++ {
		if c.At(i, i) != white {
			t.Fatalf("diagonal pixel (%d,%d) missing", i, i)
		}
	}
}

func TestVHLines(t *testing.T) {
	c, _ := NewCanvas(10, 10, black)
	c.VLine(4, 8, 1, white, 1) // inverted order
	c.HLine(8, 1, 7, red, 1)
	if c.At(4, 3) != white || c.At(3, 7) != red {
		t.Fatal("lines missing")
	}
}

func TestPNGRoundTrip(t *testing.T) {
	c, _ := NewCanvas(16, 16, black)
	c.FillTrapezoid(2, 2, 12, 12, 2, 12, red, 1)
	var buf bytes.Buffer
	if err := c.EncodePNG(&buf); err != nil {
		t.Fatal(err)
	}
	img, err := png.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if img.Bounds().Dx() != 16 {
		t.Fatalf("decoded width %d", img.Bounds().Dx())
	}
	path := filepath.Join(t.TempDir(), "out.png")
	if err := c.SavePNG(path); err != nil {
		t.Fatal(err)
	}
	if err := c.SavePNG("/nonexistent-dir/x.png"); err == nil {
		t.Fatal("bad path accepted")
	}
}

func TestText(t *testing.T) {
	c, _ := NewCanvas(200, 20, black)
	c.Text(1, 1, "px > 8.872e10", white)
	// Some pixels must be set.
	var lit int
	for y := 0; y < 10; y++ {
		for x := 0; x < 100; x++ {
			if c.At(x, y) == white {
				lit++
			}
		}
	}
	if lit < 30 {
		t.Fatalf("text rendered only %d pixels", lit)
	}
	if TextWidth("abc") != 3*GlyphWidth {
		t.Fatalf("TextWidth = %d", TextWidth("abc"))
	}
	// Unknown rune draws a box rather than panicking; uppercase folds.
	c.Text(1, 10, "AB@", white)
	c.TextCentered(100, 1, "xrel", white)
}
