// Package acs is the American Community Survey substrate of the paper's
// second benchmark (§4.3): a deterministic generator for a 274-column
// PUMS-style person-records table (person weight, 80 replicate weights,
// demographic and income variables, plus allocation-flag padding columns —
// the same shape as the real microdata), and the survey-statistics layer the
// R `survey` package provides: weighted totals/means with replicate-weight
// standard errors.
//
// The real ACS extracts are not bundled; this generator stands in for them.
// The benchmark phases are preserved:
// a wide-row load into each engine, then an analysis that pushes filtering
// and grouping into the database and computes the statistics host-side from
// exported columns.
package acs

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
)

// Replicates is the number of replicate weights (PWGTP1..PWGTP80).
const Replicates = 80

// TotalColumns is the ACS person-file column count the paper quotes.
const TotalColumns = 274

// States used by the benchmark subset (five states, as in §4.3).
var States = []int32{6, 36, 48, 12, 17} // CA NY TX FL IL

// Data is a generated ACS person table in columnar form.
type Data struct {
	Names []string
	Cols  []any
	Rows  int
}

// DDL returns the CREATE TABLE statement for the person table.
func (d *Data) DDL() string {
	var sb strings.Builder
	sb.WriteString("CREATE TABLE acs_persons (")
	for i, n := range d.Names {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(n)
		switch d.Cols[i].(type) {
		case []int64:
			sb.WriteString(" BIGINT")
		case []int32:
			sb.WriteString(" INTEGER")
		case []float64:
			sb.WriteString(" DOUBLE")
		case []string:
			sb.WriteString(" VARCHAR")
		}
	}
	sb.WriteString(")")
	return sb.String()
}

// Generate builds n person records deterministically from seed.
func Generate(n int, seed int64) *Data {
	rng := rand.New(rand.NewSource(seed))
	d := &Data{Rows: n}
	add := func(name string, col any) {
		d.Names = append(d.Names, name)
		d.Cols = append(d.Cols, col)
	}

	serial := make([]int64, n)
	st := make([]int32, n)
	agep := make([]int32, n)
	sex := make([]int32, n)
	pwgtp := make([]int32, n)
	for i := 0; i < n; i++ {
		serial[i] = int64(2016000000000) + int64(i)
		st[i] = States[rng.Intn(len(States))]
		agep[i] = int32(rng.Intn(100))
		sex[i] = int32(rng.Intn(2) + 1)
		// Person weights: roughly 100 persons represented per record.
		pwgtp[i] = int32(20 + rng.Intn(240))
	}
	add("serialno", serial)
	add("st", st)
	add("agep", agep)
	add("sex", sex)
	add("pwgtp", pwgtp)

	// 80 replicate weights: the base weight with multiplicative noise, the
	// successive-difference-replication shape the survey package expects.
	for r := 1; r <= Replicates; r++ {
		col := make([]int32, n)
		for i := 0; i < n; i++ {
			jitter := 1 + 0.15*rng.NormFloat64()
			w := float64(pwgtp[i]) * jitter
			if w < 1 {
				w = 1
			}
			col[i] = int32(w)
		}
		add(fmt.Sprintf("pwgtp%d", r), col)
	}

	pincp := make([]float64, n)
	wagp := make([]float64, n)
	ssp := make([]float64, n)
	schl := make([]int32, n)
	esr := make([]int32, n)
	hicov := make([]int32, n)
	mar := make([]int32, n)
	rac1p := make([]int32, n)
	for i := 0; i < n; i++ {
		base := math.Exp(10 + rng.NormFloat64())
		if agep[i] < 16 {
			base = 0
		}
		pincp[i] = math.Round(base)
		wagp[i] = math.Round(base * (0.5 + rng.Float64()*0.5))
		if agep[i] >= 65 {
			ssp[i] = math.Round(8000 + 6000*rng.Float64())
		}
		schl[i] = int32(rng.Intn(24) + 1)
		esr[i] = int32(rng.Intn(6) + 1)
		hicov[i] = int32(rng.Intn(2) + 1)
		mar[i] = int32(rng.Intn(5) + 1)
		rac1p[i] = int32(rng.Intn(9) + 1)
	}
	add("pincp", pincp)
	add("wagp", wagp)
	add("ssp", ssp)
	add("schl", schl)
	add("esr", esr)
	add("hicov", hicov)
	add("mar", mar)
	add("rac1p", rac1p)

	// Pad with allocation flags and recoded variables to the ACS person
	// file's 274 columns (the real file is mostly such columns).
	for len(d.Names) < TotalColumns {
		k := len(d.Names)
		if k%2 == 0 {
			col := make([]int32, n)
			for i := range col {
				col[i] = int32(rng.Intn(3))
			}
			add(fmt.Sprintf("f_var%03d", k), col)
		} else {
			col := make([]float64, n)
			for i := range col {
				col[i] = rng.Float64() * 100
			}
			add(fmt.Sprintf("rc_var%03d", k), col)
		}
	}
	return d
}

// ---------------------------------------------------------------------------
// Survey statistics (the R survey package's estimators).
// ---------------------------------------------------------------------------

// Estimate is a point estimate with its replicate-weight standard error.
type Estimate struct {
	Value float64
	SE    float64
}

// replicateSE computes the successive-difference-replication standard error:
// sqrt(4/80 * sum_r (theta_r - theta)^2).
func replicateSE(theta float64, thetas []float64) float64 {
	sum := 0.0
	for _, t := range thetas {
		d := t - theta
		sum += d * d
	}
	return math.Sqrt(4 / float64(len(thetas)) * sum)
}

// WeightedTotal estimates sum(w) — the represented population — with SE.
// reps holds the replicate weight columns.
func WeightedTotal(w []int32, reps [][]int32) Estimate {
	total := 0.0
	for _, x := range w {
		total += float64(x)
	}
	thetas := make([]float64, len(reps))
	for r, rep := range reps {
		s := 0.0
		for _, x := range rep {
			s += float64(x)
		}
		thetas[r] = s
	}
	return Estimate{Value: total, SE: replicateSE(total, thetas)}
}

// WeightedMean estimates mean(v, weights=w) with replicate SE.
func WeightedMean(v []float64, w []int32, reps [][]int32) Estimate {
	mean := weightedMeanOnce(v, w)
	thetas := make([]float64, len(reps))
	for r, rep := range reps {
		thetas[r] = weightedMeanOnce(v, rep)
	}
	return Estimate{Value: mean, SE: replicateSE(mean, thetas)}
}

func weightedMeanOnce(v []float64, w []int32) float64 {
	num, den := 0.0, 0.0
	for i, x := range v {
		num += x * float64(w[i])
		den += float64(w[i])
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// WeightedRatio estimates sum(w[mask]) / sum(w) (e.g. health-coverage rate)
// with replicate SE.
func WeightedRatio(mask []bool, w []int32, reps [][]int32) Estimate {
	ratio := ratioOnce(mask, w)
	thetas := make([]float64, len(reps))
	for r, rep := range reps {
		thetas[r] = ratioOnce(mask, rep)
	}
	return Estimate{Value: ratio, SE: replicateSE(ratio, thetas)}
}

func ratioOnce(mask []bool, w []int32) float64 {
	num, den := 0.0, 0.0
	for i, x := range w {
		den += float64(x)
		if mask[i] {
			num += float64(x)
		}
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// WeightedQuantile estimates the weighted q-quantile of v (e.g. median
// income), with replicate SE.
func WeightedQuantile(v []float64, w []int32, reps [][]int32, q float64) Estimate {
	val := quantileOnce(v, w, q)
	thetas := make([]float64, len(reps))
	for r, rep := range reps {
		thetas[r] = quantileOnce(v, rep, q)
	}
	return Estimate{Value: val, SE: replicateSE(val, thetas)}
}

func quantileOnce(v []float64, w []int32, q float64) float64 {
	idx := make([]int, len(v))
	for i := range idx {
		idx[i] = i
	}
	// insertion-free sort via simple slice sort
	sortByValue(idx, v)
	total := 0.0
	for _, x := range w {
		total += float64(x)
	}
	target := q * total
	run := 0.0
	for _, i := range idx {
		run += float64(w[i])
		if run >= target {
			return v[i]
		}
	}
	if len(v) == 0 {
		return 0
	}
	return v[idx[len(idx)-1]]
}

func sortByValue(idx []int, v []float64) {
	// simple shell sort to avoid importing sort for a closure-heavy path
	n := len(idx)
	for gap := n / 2; gap > 0; gap /= 2 {
		for i := gap; i < n; i++ {
			tmp := idx[i]
			j := i
			for ; j >= gap && v[idx[j-gap]] > v[tmp]; j -= gap {
				idx[j] = idx[j-gap]
			}
			idx[j] = tmp
		}
	}
}
