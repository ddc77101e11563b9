package ringbuf

import (
	"math/rand"
	"slices"
	"strconv"
	"testing"
)

// model is the naive reference: a slice that drops its head.
type model struct {
	vals []int
	size int
}

func (m *model) push(v int) (int, bool) {
	m.vals = append(m.vals, v)
	if len(m.vals) <= m.size {
		return 0, false
	}
	evicted := m.vals[0]
	m.vals = m.vals[1:]
	return evicted, true
}

func (m *model) newest(limit int, keep func(int) bool) []int {
	var out []int
	for _, v := range m.vals {
		if keep == nil || keep(v) {
			out = append(out, v)
		}
	}
	if limit > 0 && len(out) > limit {
		out = out[len(out)-limit:]
	}
	return out
}

func all(r *Ring[int]) []int {
	var out []int
	r.Each(func(v int) bool { out = append(out, v); return true })
	return out
}

func TestRingMatchesModel(t *testing.T) {
	even := func(v int) bool { return v%2 == 0 }
	for _, size := range []int{1, 2, 7, 1024} {
		rng := rand.New(rand.NewSource(int64(size)))
		r := New[int](size)
		m := &model{size: size}
		for step := 0; step < 5*size+50; step++ {
			switch op := rng.Intn(100); {
			case op < 2:
				r.Reset()
				m.vals = nil
			default:
				v := rng.Intn(1000)
				gotV, gotOK := r.Push(v)
				wantV, wantOK := m.push(v)
				if gotV != wantV || gotOK != wantOK {
					t.Fatalf("size %d step %d: Push(%d) = (%d, %v), want (%d, %v)",
						size, step, v, gotV, gotOK, wantV, wantOK)
				}
			}
			if r.Len() != len(m.vals) {
				t.Fatalf("size %d step %d: Len = %d, want %d", size, step, r.Len(), len(m.vals))
			}
			if got := all(r); !slices.Equal(got, m.vals) {
				t.Fatalf("size %d step %d: Each = %v, want %v", size, step, got, m.vals)
			}
			limit := rng.Intn(size + 2)
			for _, keep := range []func(int) bool{nil, even} {
				if got, want := r.Newest(limit, keep), m.newest(limit, keep); !slices.Equal(got, want) {
					t.Fatalf("size %d step %d: Newest(%d) = %v, want %v", size, step, limit, got, want)
				}
			}
		}
	}
}

func TestRingEachStopsEarly(t *testing.T) {
	r := New[int](4)
	for v := 0; v < 6; v++ {
		r.Push(v)
	}
	var seen []int
	r.Each(func(v int) bool { seen = append(seen, v); return v < 3 })
	if !slices.Equal(seen, []int{2, 3}) {
		t.Fatalf("Each visited %v, want [2 3]", seen)
	}
}

func TestRingPushDoesNotAllocateWhenFull(t *testing.T) {
	r := New[string](64)
	for i := 0; i < 64; i++ {
		r.Push("x")
	}
	if n := testing.AllocsPerRun(100, func() { r.Push("y") }); n != 0 {
		t.Fatalf("Push on a full ring allocates %v times", n)
	}
}

func TestNewRejectsNonPositiveCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) did not panic")
		}
	}()
	New[int](0)
}

var sink int

func BenchmarkRingPush(b *testing.B) {
	for _, size := range []int{128, 65536} {
		b.Run("cap="+strconv.Itoa(size), func(b *testing.B) {
			r := New[[8]int](size)
			for i := 0; i < size; i++ {
				r.Push([8]int{})
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ev, _ := r.Push([8]int{i})
				sink += ev[0]
			}
		})
	}
}
