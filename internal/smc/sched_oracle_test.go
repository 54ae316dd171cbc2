package smc

import (
	"math/rand"
	"testing"

	"easydram/internal/dram"
	"easydram/internal/fault"
	"easydram/internal/mem"
)

// The built-in schedulers rely on the request table being in arrival order
// and stop at the first eligible entry. The references below are the
// full-scan bodies that made no such assumption and ordered every priority
// class by Seq; on a shuffled copy of the table they must choose the entry
// with the same Seq as the built-ins do on the ordered table.

// refFCFS picks the lowest Seq.
func refFCFS(table []Entry) int {
	oldest := 0
	for i := 1; i < len(table); i++ {
		if table[i].Seq < table[oldest].Seq {
			oldest = i
		}
	}
	return oldest
}

// refFRFCFS picks the oldest row-hit read, then the oldest row-hit write,
// then the oldest read, then the oldest request, each by Seq.
func refFRFCFS(table []Entry, openRows []int) int {
	hitRead, hitWrite, read, oldest := -1, -1, -1, -1
	for i := range table {
		e := &table[i]
		if oldest < 0 || e.Seq < table[oldest].Seq {
			oldest = i
		}
		switch e.Kind {
		case mem.Read, mem.Write, mem.Writeback:
		default:
			continue
		}
		if openRows[e.Addr.Bank] == e.Addr.Row {
			if e.Kind == mem.Read {
				if hitRead < 0 || e.Seq < table[hitRead].Seq {
					hitRead = i
				}
			} else if hitWrite < 0 || e.Seq < table[hitWrite].Seq {
				hitWrite = i
			}
		}
		if e.Kind == mem.Read && (read < 0 || e.Seq < table[read].Seq) {
			read = i
		}
	}
	if hitRead >= 0 {
		return hitRead
	}
	if hitWrite >= 0 {
		return hitWrite
	}
	if read >= 0 {
		return read
	}
	return oldest
}

// refBLISS is BLISS with the full-scan Pick: the oldest eligible row hit by
// Seq, else the oldest request, with the same streak bookkeeping.
type refBLISS struct {
	maxStreak, streakBank, streak int
}

func (s *refBLISS) pick(table []Entry, openRows []int) int {
	pick, oldest := -1, 0
	for i := range table {
		e := &table[i]
		if e.Seq < table[oldest].Seq {
			oldest = i
		}
		if !e.IsAccess() || openRows[e.Addr.Bank] != e.Addr.Row {
			continue
		}
		if e.Addr.Bank == s.streakBank && s.streak >= s.maxStreak {
			continue
		}
		if pick < 0 || e.Seq < table[pick].Seq {
			pick = i
		}
	}
	if pick < 0 {
		s.streakBank, s.streak = table[oldest].Addr.Bank, 0
		return oldest
	}
	if table[pick].Addr.Bank == s.streakBank {
		s.streak++
	} else {
		s.streakBank, s.streak = table[pick].Addr.Bank, 1
	}
	return pick
}

// oracleKinds are the request kinds the oracle tables mix.
var oracleKinds = []mem.Kind{mem.Read, mem.Read, mem.Read, mem.Write, mem.Writeback, mem.RowClone, mem.Bitwise, mem.Profile, mem.ProfileRow}

// schedCoverage counts the decisions a run exercised, by what won them.
type schedCoverage struct {
	hitReads, hitWrites, readMisses, oldest, capped int
}

// diffSchedulers drives the built-in schedulers and their references with
// one Seq-ordered table decoded from ops, two bytes an operation: append an
// entry (kind, bank and row from the argument), open or close a bank's row,
// or make one decision. A decision runs FCFS, FR-FCFS and BLISS on the
// ordered table and their references on a shuffled copy, compares the
// chosen Seq and the BLISS streak state, then serves BLISS's pick the way
// the controller does: it leaves the table and, for an access, opens its
// row. Four banks and four rows keep row hits and streaks frequent.
func diffSchedulers(t *testing.T, maxStreak int, ops []byte) schedCoverage {
	t.Helper()
	const banks, rows = 4, 4
	openRows := []int{-1, -1, -1, -1}
	bliss := &BLISS{MaxStreak: maxStreak, streakBank: -1}
	ref := &refBLISS{maxStreak: maxStreak, streakBank: -1}
	if maxStreak <= 0 {
		ref.maxStreak = 4
	}
	rng := rand.New(rand.NewSource(int64(len(ops))))
	var (
		table    []Entry
		shuffled []Entry
		seq      uint64
		cov      schedCoverage
	)
	for k := 0; k+1 < len(ops); k += 2 {
		op, arg := ops[k]%4, int(ops[k+1])
		switch op {
		case 0, 1: // append an arrival
			e := Entry{ID: seq + 1, Kind: oracleKinds[arg%len(oracleKinds)], Seq: seq}
			e.Addr = dram.Addr{Bank: arg / 9 % banks, Row: arg / 36 % rows}
			table = append(table, e)
			seq++
		case 2: // open or close a row
			if arg&1 == 0 {
				openRows[arg>>1%banks] = arg >> 3 % rows
			} else {
				openRows[arg>>1%banks] = -1
			}
		case 3: // one decision
			if len(table) == 0 {
				continue
			}
			shuffled = append(shuffled[:0], table...)
			rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			if got, want := table[(FCFS{}).Pick(table, openRows)].Seq, shuffled[refFCFS(shuffled)].Seq; got != want {
				t.Fatalf("op %d: FCFS chose Seq %d, reference %d", k/2, got, want)
			}
			if got, want := table[(FRFCFS{}).Pick(table, openRows)].Seq, shuffled[refFRFCFS(shuffled, openRows)].Seq; got != want {
				t.Fatalf("op %d: FR-FCFS chose Seq %d, reference %d", k/2, got, want)
			}
			wasCapped := ref.streak >= ref.maxStreak
			idx := bliss.Pick(table, openRows)
			if got, want := table[idx].Seq, shuffled[ref.pick(shuffled, openRows)].Seq; got != want {
				t.Fatalf("op %d: BLISS chose Seq %d, reference %d", k/2, got, want)
			}
			if bliss.streakBank != ref.streakBank || bliss.streak != ref.streak {
				t.Fatalf("op %d: BLISS streak (bank %d, %d), reference (bank %d, %d)",
					k/2, bliss.streakBank, bliss.streak, ref.streakBank, ref.streak)
			}
			e := table[idx]
			hit := e.IsAccess() && openRows[e.Addr.Bank] == e.Addr.Row
			switch {
			case hit && e.Kind == mem.Read:
				cov.hitReads++
			case hit:
				cov.hitWrites++
			case e.Kind == mem.Read:
				cov.readMisses++
			default:
				cov.oldest++
			}
			if wasCapped && !hit {
				cov.capped++
			}
			if e.IsAccess() {
				openRows[e.Addr.Bank] = e.Addr.Row
			}
			table = append(table[:idx], table[idx+1:]...)
		}
	}
	return cov
}

// TestSchedulersMatchFullScanOracle diffs the early-exit schedulers against
// the full-scan references over seeded random tables, at the default BLISS
// threshold and at tighter ones.
func TestSchedulersMatchFullScanOracle(t *testing.T) {
	for _, maxStreak := range []int{0, 1, 2, 4} {
		for seed := int64(1); seed <= 4; seed++ {
			ops := make([]byte, 2*6000)
			rand.New(rand.NewSource(seed*10 + int64(maxStreak))).Read(ops)
			cov := diffSchedulers(t, maxStreak, ops)
			if cov.hitReads == 0 || cov.hitWrites == 0 || cov.readMisses == 0 || cov.oldest == 0 || cov.capped == 0 {
				t.Fatalf("streak %d, seed %d: weak coverage: %+v", maxStreak, seed, cov)
			}
		}
	}
}

// FuzzSchedulerOracle diffs the early-exit schedulers against the full-scan
// references on fuzzed tables and decision sequences.
func FuzzSchedulerOracle(f *testing.F) {
	f.Add(uint8(4), []byte{0, 0, 0, 40, 2, 0, 0, 9, 3, 0, 3, 0, 3, 0})
	f.Add(uint8(1), []byte{0, 0, 0, 1, 0, 2, 2, 0, 3, 0, 3, 0, 0, 45, 3, 0, 3, 0})
	f.Fuzz(func(t *testing.T, maxStreak uint8, ops []byte) {
		diffSchedulers(t, int(maxStreak%6), ops)
	})
}

// checkTableOrder fails unless the controller's table Seq values strictly
// increase with the index.
func checkTableOrder(t *testing.T, ctl *BaseController, when string) {
	t.Helper()
	for i := 1; i < len(ctl.table); i++ {
		if ctl.table[i].Seq <= ctl.table[i-1].Seq {
			t.Fatalf("%s: table Seq out of order at %d: %d after %d", when, i, ctl.table[i].Seq, ctl.table[i-1].Seq)
		}
	}
}

// TestControllerTableStaysInArrivalOrder checks the invariant the built-in
// schedulers rely on: after every ServeOne — a successful service, a
// failed one, and an ingest rejection — the table's Seq values strictly
// increase.
func TestControllerTableStaysInArrivalOrder(t *testing.T) {
	for _, sched := range []Scheduler{FCFS{}, FRFCFS{}, NewBLISS()} {
		t.Run(sched.Name(), func(t *testing.T) {
			ctl, env := newControllerEnv(t)
			ctl.cfg.Scheduler, ctl.statelessSched = sched, Stateless(sched)
			m := ctl.Mapper()
			rng := rand.New(rand.NewSource(7))
			id := uint64(0)
			push := func(kind mem.Kind, a dram.Addr) {
				id++
				env.Tile().PushRequest(&mem.Request{ID: id, Kind: kind, Addr: m.Unmap(a)})
			}
			kinds := []mem.Kind{mem.Read, mem.Read, mem.Write, mem.Writeback}
			served := 0
			for round := 0; round < 200; round++ {
				for k := rng.Intn(4); k > 0; k-- {
					push(kinds[rng.Intn(len(kinds))], dram.Addr{Bank: rng.Intn(4), Row: rng.Intn(3), Col: rng.Intn(8)})
				}
				env.Clear()
				worked, err := ctl.ServeOne(env)
				if err != nil {
					t.Fatal(err)
				}
				if worked {
					served++
				}
				checkTableOrder(t, ctl, "after a service")
			}
			if served == 0 || ctl.Pending() < 2 {
				t.Fatalf("weak coverage: %d served, %d left pending", served, ctl.Pending())
			}

			// An ingest rejection: a request past the bank's last row drops
			// out of the table behind the entries already buffered.
			push(mem.Read, dram.Addr{Bank: 1, Row: 1})
			push(mem.Read, dram.Addr{Bank: 2, Row: ctl.cfg.RowsPerBank})
			push(mem.Read, dram.Addr{Bank: 3, Row: 2})
			env.Clear()
			if _, err := ctl.ServeOne(env); err == nil {
				t.Fatal("ServeOne accepted a request past the bank's last row")
			}
			checkTableOrder(t, ctl, "after an ingest rejection")

			// Failed services: every launch fails, and each ServeOne still
			// removes the entry it picked.
			env.Tile().SetFaultLink(fault.NewLinkModel(fault.LinkConfig{ExecFailRate: 1}, 1))
			// The first call also ingests the request queued behind the
			// rejected one.
			for ctl.Pending() > 0 || !env.Tile().IncomingEmpty() {
				want := ctl.Pending() - 1
				if !env.Tile().IncomingEmpty() {
					want++
				}
				env.Clear()
				if _, err := ctl.ServeOne(env); err == nil {
					t.Fatal("ServeOne succeeded with every launch failing")
				}
				if ctl.Pending() != want {
					t.Fatalf("Pending = %d after a failed service, want %d", ctl.Pending(), want)
				}
				checkTableOrder(t, ctl, "after a failed service")
			}
		})
	}
}
