// eiselLemire in this file is Go's strconv.eiselLemire64, from the Go
// source file src/strconv/eisel_lemire.go, which carries this notice:
//
// Copyright 2020 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE file.
//
// Here it is renamed, re-commented and reads its powers of ten from
// powersOfTen; the logic is unchanged. Go's LICENSE file reads:
//
// Copyright 2009 The Go Authors.
//
// Redistribution and use in source and binary forms, with or without
// modification, are permitted provided that the following conditions are
// met:
//
//    * Redistributions of source code must retain the above copyright
// notice, this list of conditions and the following disclaimer.
//    * Redistributions in binary form must reproduce the above
// copyright notice, this list of conditions and the following disclaimer
// in the documentation and/or other materials provided with the
// distribution.
//    * Neither the name of Google LLC nor the names of its
// contributors may be used to endorse or promote products derived from
// this software without specific prior written permission.
//
// THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
// "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
// LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
// A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
// OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
// SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
// LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
// DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
// THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
// (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
// OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.

package server

import (
	"math"
	"math/bits"
)

// eiselLemire converts mant×10^exp10 to the nearest float64 (ties to
// even) with one or two 64×64-bit multiplies against powersOfTen
// (Lemire, "Number Parsing at a Gigabyte per Second", 2021). It is
// strconv's eiselLemire64 (src/strconv/eisel_lemire.go in the Go
// source) line for line, under the notice at the top of this file. It
// declines (false) when the truncated table row leaves the rounding
// undecided, and when the result is subnormal, infinite or beyond the
// table, so the caller can fall back to strconv.ParseFloat. It also
// declines every decimal fraction a float64 holds exactly, such as
// 97.25, which number's exact tier takes first.
func eiselLemire(mant uint64, exp10 int, neg bool) (float64, bool) {
	if mant == 0 {
		if neg {
			return math.Copysign(0, -1), true
		}
		return 0, true
	}
	if exp10 < minPow10 || exp10 > maxPow10 {
		return 0, false
	}
	pow := &powersOfTen[exp10-minPow10]

	// Normalise mant to a set top bit; 217706/2¹⁶ ≈ log₂10 puts
	// exp2 at the biased binary exponent of mant×10^exp10, less the
	// one-bit correction below.
	clz := bits.LeadingZeros64(mant)
	mant <<= uint(clz)
	exp2 := uint64(217706*exp10>>16+64+1023) - uint64(clz)

	// The top 64 bits of mant×pow. When its low nine bits are all ones
	// and the product's low half could carry, the table row's low word
	// decides; if even that product sits on the carry boundary, give up.
	hi, lo := bits.Mul64(mant, pow[1])
	if hi&0x1FF == 0x1FF && lo+mant < mant {
		yHi, yLo := bits.Mul64(mant, pow[0])
		mHi, mLo := hi, lo+yHi
		if mLo < lo {
			mHi++
		}
		if mHi&0x1FF == 0x1FF && mLo+1 == 0 && yLo+mant < mant {
			return 0, false
		}
		hi, lo = mHi, mLo
	}

	// Keep 54 bits: 53 for the result and one to round with.
	msb := hi >> 63
	m := hi >> (msb + 9)
	exp2 -= 1 ^ msb

	// An exact-looking halfway point may be an artefact of the
	// truncated table row: let strconv settle it.
	if lo == 0 && hi&0x1FF == 0 && m&3 == 1 {
		return 0, false
	}

	// Round to 53 bits. Adding the round bit sends ties up, which is to
	// even: the ties that should go down were declined above.
	m += m & 1
	m >>= 1
	if m>>53 > 0 {
		m >>= 1
		exp2++
	}
	// exp2 is unsigned: 0 (or wrapped) is subnormal, 0x7FF up infinite.
	if exp2-1 >= 0x7FF-1 {
		return 0, false
	}
	b := exp2<<52 | m&(1<<52-1)
	if neg {
		b |= 1 << 63
	}
	return math.Float64frombits(b), true
}
