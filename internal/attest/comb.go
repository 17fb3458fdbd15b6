// Fixed-base exponentiation in RFC 3526 group 14.
//
// Every quote (Attest, AttestBatch) and every verifier exchange draws a
// fresh DH contribution g^x mod p, always with the same g = 2 and p. So
// the powers of g an exponentiation needs can be computed once per
// process. groupExp is a Lim–Lee comb: the 2048-bit exponent is read as
// combRows rows of combRowBits bits, each row cut into combTables blocks
// of combBlockBits bits. Table j holds, for every combRows-bit column
// pattern u, the product of g^(2^(i·combRowBits + j·combBlockBits)) over
// the set bits i of u. An exponentiation is then combBlockBits−1
// squarings plus at most combTables·combBlockBits multiplications
// (about 320 modular products), against ~2,560 for big.Int.Exp.

package attest

import (
	"encoding/binary"
	"math/big"
	"math/bits"
	"sync"
)

const (
	combBits      = 2048                     // exponent bits the comb covers (the size of p)
	combRows      = 8                        // h: bits in one table index
	combTables    = 4                        // v: tables, one per block of a row
	combRowBits   = combBits / combRows      // a = 256
	combBlockBits = combRowBits / combTables // b = 64
)

// combTable is the 4×256-residue comb table (≈256 KB). It is built on
// the first groupExp call, not at package init, so processes that never
// attest do not pay for it.
type combTable [combTables][1 << combRows]*big.Int

var combTab = sync.OnceValue(buildComb)

// buildComb builds the table. Every base g^(2^k) it needs comes off one
// squaring chain; each other entry is one product of a smaller entry and
// a base.
func buildComb() *combTable {
	tab := new(combTable)
	var base [combTables][combRows]*big.Int
	r, sq, q, rem := new(big.Int).Set(Group14G), new(big.Int), new(big.Int), new(big.Int)
	for k := 0; ; k++ {
		if k%combBlockBits == 0 {
			base[k%combRowBits/combBlockBits][k/combRowBits] = new(big.Int).Set(r)
			if k == combBits-combBlockBits {
				break
			}
		}
		sq.Mul(r, r)
		q.QuoRem(sq, Group14P, r)
	}
	for j := range tab {
		t := &tab[j]
		t[0] = big.NewInt(1)
		for u := 1; u < len(t); u++ {
			i := bits.Len(uint(u)) - 1
			if rest := u &^ (1 << i); rest != 0 {
				sq.Mul(t[rest], base[j][i])
				q.QuoRem(sq, Group14P, rem)
				// A copy holds only the residue's words; the remainder
				// QuoRem returns sits in a buffer twice that size.
				t[u] = new(big.Int).Set(rem)
			} else {
				t[u] = base[j][i]
			}
		}
	}
	return tab
}

// groupExp returns Group14G^x mod Group14P, equal bit for bit to
// new(big.Int).Exp(Group14G, x, Group14P). It is safe for concurrent use.
func groupExp(x *big.Int) *big.Int {
	if x.Sign() < 0 || x.BitLen() > combBits {
		return new(big.Int).Exp(Group14G, x, Group14P)
	}
	tab := combTab()
	// w[n] holds exponent bits 64n .. 64n+63.
	var e [combBits / 8]byte
	x.FillBytes(e[:])
	var w [combBits / 64]uint64
	for n := range w {
		w[n] = binary.BigEndian.Uint64(e[len(e)-8*(n+1):])
	}
	r, prod, q := big.NewInt(1), new(big.Int), new(big.Int)
	for k := combBlockBits - 1; k >= 0; k-- {
		if k < combBlockBits-1 {
			prod.Mul(r, r)
			q.QuoRem(prod, Group14P, r)
		}
		for j := combTables - 1; j >= 0; j-- {
			var u int
			for i := 0; i < combRows; i++ {
				p := i*combRowBits + j*combBlockBits + k
				u |= int(w[p/64]>>(p%64)&1) << i
			}
			if u != 0 {
				prod.Mul(r, tab[j][u])
				q.QuoRem(prod, Group14P, r)
			}
		}
	}
	return r
}
