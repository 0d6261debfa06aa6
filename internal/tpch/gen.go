// Package tpch implements the TPC-H workload substrate of the paper's
// evaluation: a deterministic dbgen-style data generator for all eight
// tables, the SQL text of all 22 queries, and hand-optimized
// dataframe-library implementations of Q1–Q10, the queries Table 1 reports
// (the paper's "library implementations", built from VectorWise-style
// plans).
//
// The generator follows the TPC-H specification's schema, domains and
// correlations closely enough that the published query selectivities hold
// (dates 1992–1998, 0–10% discounts, color words in part names, BRASS part
// types, nation/region topology, return flags correlated with receipt
// dates); exact dbgen text grammar is replaced by seeded synthetic text.
package tpch

import (
	"fmt"
	"math/rand"

	"monetlite/internal/mtypes"
)

// Scale factors: SF 1 ≈ 6M lineitem rows (the generator is linear in SF).
const (
	suppliersPerSF = 10000
	customersPerSF = 150000
	partsPerSF     = 200000
	ordersPerSF    = 1500000
	suppPerPart    = 4
)

// Data holds all generated TPC-H tables in columnar form.
type Data struct {
	SF                                                   float64
	Region                                               *Table
	Nation                                               *Table
	Supplier, Customer, Part, PartSupp, Orders, Lineitem *Table
}

// Table is one generated table: DDL plus columnar data ready for bulk
// append (slices in the formats (*monetlite.Conn).Append accepts).
type Table struct {
	Name string
	DDL  string
	Cols []any
	Rows int
}

// Tables returns all tables in dependency order.
func (d *Data) Tables() []*Table {
	return []*Table{d.Region, d.Nation, d.Supplier, d.Customer, d.Part, d.PartSupp, d.Orders, d.Lineitem}
}

// TotalRows sums the generated row counts.
func (d *Data) TotalRows() int {
	n := 0
	for _, t := range d.Tables() {
		n += t.Rows
	}
	return n
}

var regions = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}

// nations maps the 25 spec nations to their region keys.
var nations = []struct {
	name string
	reg  int32
}{
	{"ALGERIA", 0}, {"ARGENTINA", 1}, {"BRAZIL", 1}, {"CANADA", 1},
	{"EGYPT", 4}, {"ETHIOPIA", 0}, {"FRANCE", 3}, {"GERMANY", 3},
	{"INDIA", 2}, {"INDONESIA", 2}, {"IRAN", 4}, {"IRAQ", 4},
	{"JAPAN", 2}, {"JORDAN", 4}, {"KENYA", 0}, {"MOROCCO", 0},
	{"MOZAMBIQUE", 0}, {"PERU", 1}, {"CHINA", 2}, {"ROMANIA", 3},
	{"SAUDI ARABIA", 4}, {"VIETNAM", 2}, {"RUSSIA", 3},
	{"UNITED KINGDOM", 3}, {"UNITED STATES", 1},
}

var colors = []string{
	"almond", "antique", "aquamarine", "azure", "beige", "bisque", "black",
	"blanched", "blue", "blush", "brown", "burlywood", "burnished", "chartreuse",
	"chiffon", "chocolate", "coral", "cornflower", "cornsilk", "cream", "cyan",
	"dark", "deep", "dim", "dodger", "drab", "firebrick", "floral", "forest",
	"frosted", "gainsboro", "ghost", "goldenrod", "green", "grey", "honeydew",
	"hot", "hotpink", "indian", "ivory", "khaki", "lace", "lavender", "lawn",
	"lemon", "light", "lime", "linen", "magenta", "maroon", "medium", "metallic",
	"midnight", "mint", "misty", "moccasin", "navajo", "navy", "olive", "orange",
	"orchid", "pale", "papaya", "peach", "peru", "pink", "plum", "powder",
	"puff", "purple", "red", "rose", "rosy", "royal", "saddle", "salmon",
	"sandy", "seashell", "sienna", "sky", "slate", "smoke", "snow", "spring",
	"steel", "tan", "thistle", "tomato", "turquoise", "violet", "wheat", "white",
	"yellow",
}

var typeSyl1 = []string{"STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"}
var typeSyl2 = []string{"ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED"}
var typeSyl3 = []string{"TIN", "NICKEL", "BRASS", "STEEL", "COPPER"}

var containers1 = []string{"SM", "LG", "MED", "JUMBO", "WRAP"}
var containers2 = []string{"CASE", "BOX", "BAG", "JAR", "PKG", "PACK", "CAN", "DRUM"}

var segments = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"}
var priorities = []string{"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"}
var shipModes = []string{"REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"}
var shipInstr = []string{"DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN"}

var commentWords = []string{
	"carefully", "quickly", "furiously", "slowly", "blithely", "express",
	"final", "regular", "special", "pending", "ironic", "even", "bold",
	"silent", "daring", "requests", "deposits", "packages", "accounts",
	"instructions", "theodolites", "pinto", "beans", "foxes", "ideas",
	"platelets", "sleep", "wake", "nag", "haggle", "cajole", "detect",
	"among", "above", "along", "unusual", "across", "against",
}

// currentDate is the spec's CURRENTDATE (1995-06-17), used for return flags.
var currentDate = mtypes.DateFromYMD(1995, 6, 17)

var startDate = mtypes.DateFromYMD(1992, 1, 1)

// order dates span [1992-01-01, 1998-08-02] per spec.
var orderDateRange = int(mtypes.DateFromYMD(1998, 8, 2) - startDate + 1)

func comment(rng *rand.Rand, minWords, maxWords int) string {
	n := minWords + rng.Intn(maxWords-minWords+1)
	out := ""
	for i := 0; i < n; i++ {
		if i > 0 {
			out += " "
		}
		out += commentWords[rng.Intn(len(commentWords))]
	}
	return out
}

func phone(rng *rand.Rand, nation int32) string {
	return fmt.Sprintf("%02d-%03d-%03d-%04d", 10+nation, 100+rng.Intn(900), 100+rng.Intn(900), 1000+rng.Intn(9000))
}

// Generate builds all tables at the given scale factor, deterministically
// from seed.
func Generate(sf float64, seed int64) *Data {
	d := &Data{SF: sf}
	d.genRegion(seed)
	d.genNation(seed)
	d.genSupplier(sf, seed)
	d.genCustomer(sf, seed)
	d.genPart(sf, seed)
	d.genPartSupp(seed)
	d.genOrdersAndLineitem(sf, seed)
	return d
}

func scaled(sf float64, per int) int {
	n := int(sf * float64(per))
	if n < 1 {
		n = 1
	}
	return n
}

func (d *Data) genRegion(seed int64) {
	rng := rand.New(rand.NewSource(seed + 1))
	n := len(regions)
	keys := make([]int32, n)
	names := make([]string, n)
	comments := make([]string, n)
	for i := 0; i < n; i++ {
		keys[i] = int32(i)
		names[i] = regions[i]
		comments[i] = comment(rng, 3, 8)
	}
	d.Region = &Table{
		Name: "region",
		DDL: `CREATE TABLE region (
			r_regionkey INTEGER NOT NULL,
			r_name VARCHAR(25) NOT NULL,
			r_comment VARCHAR(152))`,
		Cols: []any{keys, names, comments},
		Rows: n,
	}
}

func (d *Data) genNation(seed int64) {
	rng := rand.New(rand.NewSource(seed + 2))
	n := len(nations)
	keys := make([]int32, n)
	names := make([]string, n)
	regs := make([]int32, n)
	comments := make([]string, n)
	for i, nt := range nations {
		keys[i] = int32(i)
		names[i] = nt.name
		regs[i] = nt.reg
		comments[i] = comment(rng, 3, 8)
	}
	d.Nation = &Table{
		Name: "nation",
		DDL: `CREATE TABLE nation (
			n_nationkey INTEGER NOT NULL,
			n_name VARCHAR(25) NOT NULL,
			n_regionkey INTEGER NOT NULL,
			n_comment VARCHAR(152))`,
		Cols: []any{keys, names, regs, comments},
		Rows: n,
	}
}

func (d *Data) genSupplier(sf float64, seed int64) {
	rng := rand.New(rand.NewSource(seed + 3))
	n := scaled(sf, suppliersPerSF)
	keys := make([]int32, n)
	names := make([]string, n)
	addrs := make([]string, n)
	nats := make([]int32, n)
	phones := make([]string, n)
	bals := make([]float64, n)
	comments := make([]string, n)
	for i := 0; i < n; i++ {
		keys[i] = int32(i + 1)
		names[i] = fmt.Sprintf("Supplier#%09d", i+1)
		addrs[i] = comment(rng, 2, 4)
		nats[i] = int32(rng.Intn(len(nations)))
		phones[i] = phone(rng, nats[i])
		bals[i] = float64(rng.Intn(1099801)-99999) / 100 // [-999.99, 9999.99]
		// A few suppliers carry the spec's "Customer Complaints" marker (Q16).
		if rng.Intn(200) == 0 {
			comments[i] = "Customer Complaints " + comment(rng, 2, 5)
		} else {
			comments[i] = comment(rng, 5, 12)
		}
	}
	d.Supplier = &Table{
		Name: "supplier",
		DDL: `CREATE TABLE supplier (
			s_suppkey INTEGER NOT NULL,
			s_name VARCHAR(25) NOT NULL,
			s_address VARCHAR(40) NOT NULL,
			s_nationkey INTEGER NOT NULL,
			s_phone VARCHAR(15) NOT NULL,
			s_acctbal DECIMAL(15,2) NOT NULL,
			s_comment VARCHAR(101))`,
		Cols: []any{keys, names, addrs, nats, phones, bals, comments},
		Rows: n,
	}
}

func (d *Data) genCustomer(sf float64, seed int64) {
	rng := rand.New(rand.NewSource(seed + 4))
	n := scaled(sf, customersPerSF)
	keys := make([]int32, n)
	names := make([]string, n)
	addrs := make([]string, n)
	nats := make([]int32, n)
	phones := make([]string, n)
	bals := make([]float64, n)
	segs := make([]string, n)
	comments := make([]string, n)
	for i := 0; i < n; i++ {
		keys[i] = int32(i + 1)
		names[i] = fmt.Sprintf("Customer#%09d", i+1)
		addrs[i] = comment(rng, 2, 4)
		nats[i] = int32(rng.Intn(len(nations)))
		phones[i] = phone(rng, nats[i])
		bals[i] = float64(rng.Intn(1099801)-99999) / 100
		segs[i] = segments[rng.Intn(len(segments))]
		comments[i] = comment(rng, 5, 12)
	}
	d.Customer = &Table{
		Name: "customer",
		DDL: `CREATE TABLE customer (
			c_custkey INTEGER NOT NULL,
			c_name VARCHAR(25) NOT NULL,
			c_address VARCHAR(40) NOT NULL,
			c_nationkey INTEGER NOT NULL,
			c_phone VARCHAR(15) NOT NULL,
			c_acctbal DECIMAL(15,2) NOT NULL,
			c_mktsegment VARCHAR(10) NOT NULL,
			c_comment VARCHAR(117))`,
		Cols: []any{keys, names, addrs, nats, phones, bals, segs, comments},
		Rows: n,
	}
}

func (d *Data) genPart(sf float64, seed int64) {
	rng := rand.New(rand.NewSource(seed + 5))
	n := scaled(sf, partsPerSF)
	keys := make([]int32, n)
	names := make([]string, n)
	mfgrs := make([]string, n)
	brands := make([]string, n)
	types := make([]string, n)
	sizes := make([]int32, n)
	containers := make([]string, n)
	prices := make([]float64, n)
	comments := make([]string, n)
	for i := 0; i < n; i++ {
		pk := i + 1
		keys[i] = int32(pk)
		// p_name: five distinct color words (Q9 greps for '%green%').
		w := rng.Perm(len(colors))[:5]
		names[i] = colors[w[0]] + " " + colors[w[1]] + " " + colors[w[2]] + " " + colors[w[3]] + " " + colors[w[4]]
		m := rng.Intn(5) + 1
		mfgrs[i] = fmt.Sprintf("Manufacturer#%d", m)
		brands[i] = fmt.Sprintf("Brand#%d%d", m, rng.Intn(5)+1)
		types[i] = typeSyl1[rng.Intn(6)] + " " + typeSyl2[rng.Intn(5)] + " " + typeSyl3[rng.Intn(5)]
		sizes[i] = int32(rng.Intn(50) + 1)
		containers[i] = containers1[rng.Intn(5)] + " " + containers2[rng.Intn(8)]
		// Spec retail price formula.
		prices[i] = float64(90000+((pk/10)%20001)+100*(pk%1000)) / 100
		comments[i] = comment(rng, 3, 8)
	}
	d.Part = &Table{
		Name: "part",
		DDL: `CREATE TABLE part (
			p_partkey INTEGER NOT NULL,
			p_name VARCHAR(55) NOT NULL,
			p_mfgr VARCHAR(25) NOT NULL,
			p_brand VARCHAR(10) NOT NULL,
			p_type VARCHAR(25) NOT NULL,
			p_size INTEGER NOT NULL,
			p_container VARCHAR(10) NOT NULL,
			p_retailprice DECIMAL(15,2) NOT NULL,
			p_comment VARCHAR(23))`,
		Cols: []any{keys, names, mfgrs, brands, types, sizes, containers, prices, comments},
		Rows: n,
	}
}

func (d *Data) genPartSupp(seed int64) {
	rng := rand.New(rand.NewSource(seed + 6))
	nParts := d.Part.Rows
	nSupp := d.Supplier.Rows
	n := nParts * suppPerPart
	pks := make([]int32, 0, n)
	sks := make([]int32, 0, n)
	qtys := make([]int32, 0, n)
	costs := make([]float64, 0, n)
	comments := make([]string, 0, n)
	for p := 1; p <= nParts; p++ {
		for k := 0; k < suppPerPart; k++ {
			// Spec supplier distribution: (p + k*(S/4 + (p-1)/S)) mod S + 1.
			s := (p + k*(nSupp/suppPerPart+(p-1)/nSupp)) % nSupp
			pks = append(pks, int32(p))
			sks = append(sks, int32(s+1))
			qtys = append(qtys, int32(rng.Intn(9999)+1))
			costs = append(costs, float64(rng.Intn(99901)+100)/100) // [1.00, 1000.00]
			comments = append(comments, comment(rng, 3, 8))
		}
	}
	d.PartSupp = &Table{
		Name: "partsupp",
		DDL: `CREATE TABLE partsupp (
			ps_partkey INTEGER NOT NULL,
			ps_suppkey INTEGER NOT NULL,
			ps_availqty INTEGER NOT NULL,
			ps_supplycost DECIMAL(15,2) NOT NULL,
			ps_comment VARCHAR(199))`,
		Cols: []any{pks, sks, qtys, costs, comments},
		Rows: len(pks),
	}
}

func (d *Data) genOrdersAndLineitem(sf float64, seed int64) {
	rng := rand.New(rand.NewSource(seed + 7))
	nOrders := scaled(sf, ordersPerSF)
	nCust := d.Customer.Rows
	nParts := d.Part.Rows
	nSupp := d.Supplier.Rows
	partPrice := d.Part.Cols[7].([]float64)

	oKeys := make([]int32, nOrders)
	oCust := make([]int32, nOrders)
	oStatus := make([]string, nOrders)
	oTotal := make([]float64, nOrders)
	oDate := make([]int32, nOrders)
	oPrio := make([]string, nOrders)
	oClerk := make([]string, nOrders)
	oShip := make([]int32, nOrders)
	oComment := make([]string, nOrders)

	est := nOrders * 4
	lOrder := make([]int32, 0, est)
	lPart := make([]int32, 0, est)
	lSupp := make([]int32, 0, est)
	lNum := make([]int32, 0, est)
	lQty := make([]float64, 0, est)
	lExt := make([]float64, 0, est)
	lDisc := make([]float64, 0, est)
	lTax := make([]float64, 0, est)
	lRet := make([]string, 0, est)
	lStat := make([]string, 0, est)
	lShip := make([]int32, 0, est)
	lCommit := make([]int32, 0, est)
	lRcpt := make([]int32, 0, est)
	lInstr := make([]string, 0, est)
	lMode := make([]string, 0, est)
	lComment := make([]string, 0, est)

	for i := 0; i < nOrders; i++ {
		ok := int32(i + 1)
		oKeys[i] = ok
		// Spec: only two thirds of customers place orders.
		ck := rng.Intn(nCust) + 1
		for ck%3 == 0 && nCust > 3 {
			ck = rng.Intn(nCust) + 1
		}
		oCust[i] = int32(ck)
		odate := startDate + int32(rng.Intn(orderDateRange))
		oDate[i] = odate
		oPrio[i] = priorities[rng.Intn(len(priorities))]
		oClerk[i] = fmt.Sprintf("Clerk#%09d", rng.Intn(scaled(sf, 1000))+1)
		oShip[i] = 0
		oComment[i] = comment(rng, 4, 10)

		nl := rng.Intn(7) + 1
		total := 0.0
		allF, anyF := true, false
		for ln := 1; ln <= nl; ln++ {
			pk := rng.Intn(nParts) + 1
			sk := rng.Intn(nSupp) + 1
			qty := float64(rng.Intn(50) + 1)
			ext := qty * partPrice[pk-1]
			disc := float64(rng.Intn(11)) / 100 // 0.00 - 0.10
			tax := float64(rng.Intn(9)) / 100   // 0.00 - 0.08
			ship := odate + int32(rng.Intn(121)+1)
			commit := odate + int32(rng.Intn(61)+30)
			rcpt := ship + int32(rng.Intn(30)+1)

			ret := "N"
			if rcpt <= currentDate {
				if rng.Intn(2) == 0 {
					ret = "R"
				} else {
					ret = "A"
				}
			}
			stat := "O"
			if ship <= currentDate {
				stat = "F"
				anyF = true
			} else {
				allF = false
			}
			_ = anyF

			lOrder = append(lOrder, ok)
			lPart = append(lPart, int32(pk))
			lSupp = append(lSupp, int32(sk))
			lNum = append(lNum, int32(ln))
			lQty = append(lQty, qty)
			lExt = append(lExt, ext)
			lDisc = append(lDisc, disc)
			lTax = append(lTax, tax)
			lRet = append(lRet, ret)
			lStat = append(lStat, stat)
			lShip = append(lShip, ship)
			lCommit = append(lCommit, commit)
			lRcpt = append(lRcpt, rcpt)
			lInstr = append(lInstr, shipInstr[rng.Intn(4)])
			lMode = append(lMode, shipModes[rng.Intn(7)])
			lComment = append(lComment, comment(rng, 2, 6))
			total += ext * (1 - disc) * (1 + tax)
		}
		switch {
		case allF:
			oStatus[i] = "F"
		case !anyF:
			oStatus[i] = "O"
		default:
			oStatus[i] = "P"
		}
		oTotal[i] = total
	}

	d.Orders = &Table{
		Name: "orders",
		DDL: `CREATE TABLE orders (
			o_orderkey INTEGER NOT NULL,
			o_custkey INTEGER NOT NULL,
			o_orderstatus VARCHAR(1) NOT NULL,
			o_totalprice DECIMAL(15,2) NOT NULL,
			o_orderdate DATE NOT NULL,
			o_orderpriority VARCHAR(15) NOT NULL,
			o_clerk VARCHAR(15) NOT NULL,
			o_shippriority INTEGER NOT NULL,
			o_comment VARCHAR(79))`,
		Cols: []any{oKeys, oCust, oStatus, oTotal, oDate, oPrio, oClerk, oShip, oComment},
		Rows: nOrders,
	}
	d.Lineitem = &Table{
		Name: "lineitem",
		DDL: `CREATE TABLE lineitem (
			l_orderkey INTEGER NOT NULL,
			l_partkey INTEGER NOT NULL,
			l_suppkey INTEGER NOT NULL,
			l_linenumber INTEGER NOT NULL,
			l_quantity DECIMAL(15,2) NOT NULL,
			l_extendedprice DECIMAL(15,2) NOT NULL,
			l_discount DECIMAL(15,2) NOT NULL,
			l_tax DECIMAL(15,2) NOT NULL,
			l_returnflag VARCHAR(1) NOT NULL,
			l_linestatus VARCHAR(1) NOT NULL,
			l_shipdate DATE NOT NULL,
			l_commitdate DATE NOT NULL,
			l_receiptdate DATE NOT NULL,
			l_shipinstruct VARCHAR(25) NOT NULL,
			l_shipmode VARCHAR(10) NOT NULL,
			l_comment VARCHAR(44))`,
		Cols: []any{lOrder, lPart, lSupp, lNum, lQty, lExt, lDisc, lTax, lRet, lStat,
			lShip, lCommit, lRcpt, lInstr, lMode, lComment},
		Rows: len(lOrder),
	}
}

// parseDate is a small wrapper over the engine's date parser (test helper).
func parseDate(s string) (int32, error) { return mtypes.ParseDate(s) }
