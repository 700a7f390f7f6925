#include "dspstone/kernels.h"

#include <stdexcept>

namespace record {

namespace {

std::vector<Kernel> buildKernels() {
  std::vector<Kernel> ks;

  // -------------------------------------------------------------- 1
  ks.push_back({"real_update",
                R"(
program real_update;
input a : fix;
input b : fix;
input c : fix;
output d : fix;
begin
  d := a*b + c;
end
)",
                R"(
.sym a 1
.sym b 1
.sym c 1
.sym d 1
    LT a
    MPY b
    PAC
    ADD c
    SACL d
    HALT
)",
                4});

  // -------------------------------------------------------------- 2
  ks.push_back({"complex_multiply",
                R"(
program complex_multiply;
input ar : fix;
input ai : fix;
input br : fix;
input bi : fix;
output cr : fix;
output ci : fix;
begin
  cr := ar*br - ai*bi;
  ci := ar*bi + ai*br;
end
)",
                R"(
.sym ar 1
.sym ai 1
.sym br 1
.sym bi 1
.sym cr 1
.sym ci 1
    LT ar
    MPY br
    LTP ai      ; acc = ar*br, T = ai
    MPY bi
    SPAC
    SACL cr
    LT ar
    MPY bi
    LTP ai
    MPY br
    APAC
    SACL ci
    HALT
)",
                4});

  // -------------------------------------------------------------- 3
  ks.push_back({"complex_update",
                R"(
program complex_update;
input ar : fix;
input ai : fix;
input br : fix;
input bi : fix;
input cr : fix;
input ci : fix;
output dr : fix;
output di : fix;
begin
  dr := cr + ar*br - ai*bi;
  di := ci + ar*bi + ai*br;
end
)",
                R"(
.sym ar 1
.sym ai 1
.sym br 1
.sym bi 1
.sym cr 1
.sym ci 1
.sym dr 1
.sym di 1
    LAC cr
    LT ar
    MPY br
    LTA ai      ; acc += ar*br, T = ai
    MPY bi
    SPAC
    SACL dr
    LAC ci
    LT ar
    MPY bi
    LTA ai
    MPY br
    APAC
    SACL di
    HALT
)",
                4});

  // -------------------------------------------------------------- 4
  ks.push_back({"n_real_updates",
                R"(
program n_real_updates;
const N = 16;
input a[N] : fix;
input b[N] : fix;
input c[N] : fix;
output d[N] : fix;
begin
  for i := 0 to N-1 do
    d[i] := a[i]*b[i] + c[i];
  endfor
end
)",
                R"(
.sym a 16
.sym b 16
.sym c 16
.sym d 16
    LARK AR0, #0
    LARK AR1, #16
    LARK AR2, #32
    LARK AR3, #48
    LARK AR4, #15
loop: LT *AR0+
    MPY *AR1+
    PAC
    ADD *AR2+
    SACL *AR3+
    BANZ AR4, loop
    HALT
)",
                2});

  // -------------------------------------------------------------- 5
  ks.push_back({"n_complex_updates",
                R"(
program n_complex_updates;
const N = 16;
input ar[N] : fix;
input ai[N] : fix;
input br[N] : fix;
input bi[N] : fix;
input cr[N] : fix;
input ci[N] : fix;
output dr[N] : fix;
output di[N] : fix;
begin
  for i := 0 to N-1 do
    dr[i] := cr[i] + ar[i]*br[i] - ai[i]*bi[i];
    di[i] := ci[i] + ar[i]*bi[i] + ai[i]*br[i];
  endfor
end
)",
                R"(
.sym ar 16
.sym ai 16
.sym br 16
.sym bi 16
.sym cr 16
.sym ci 16
.sym dr 16
.sym di 16
.sym cnt 1
    LARK AR0, #0     ; ar
    LARK AR1, #16    ; ai
    LARK AR2, #32    ; br
    LARK AR3, #48    ; bi
    LARK AR4, #64    ; cr
    LARK AR5, #80    ; ci
    LARK AR6, #96    ; dr
    LARK AR7, #112   ; di
    LACK #15
    SACL cnt
loop: LAC *AR4+      ; cr[i]
    LT *AR0          ; ar[i]
    MPY *AR2         ; br[i]
    LTA *AR1         ; acc += ar*br, T = ai[i]
    MPY *AR3         ; bi[i]
    SPAC
    SACL *AR6+       ; dr[i]
    LAC *AR5+        ; ci[i]
    LT *AR0+         ; ar[i] (advance)
    MPY *AR3+        ; bi[i] (advance)
    LTA *AR1+        ; acc += ar*bi, T = ai[i] (advance)
    MPY *AR2+        ; br[i] (advance)
    APAC
    SACL *AR7+       ; di[i]
    LAC cnt
    SUBK #1
    SACL cnt
    BGEZ loop
    HALT
)",
                2});

  // -------------------------------------------------------------- 6
  ks.push_back({"fir",
                R"(
program fir;
const N = 16;
input x0 : fix;
input h[N] : fix;
var x[N] : fix;
output y : fix;
var acc : fix;
begin
  // shift the delay line and insert the new sample
  for i := 0 to N-2 do
    x[N-1-i] := x[N-2-i];
  endfor
  x[0] := x0;
  acc := 0;
  for i := 0 to N-1 do
    acc := acc + h[i]*x[i];
  endfor
  y := acc;
end
)",
                R"(
.sym x0 1
.sym h 16
.sym x 16
.sym y 1
    LARK AR0, #31     ; x + 14
    RPT #14
    DMOV *AR0-        ; shift the delay line
    LAC x0
    SACL x            ; x[0] = new sample
    LARK AR0, #1      ; h
    LARK AR1, #17     ; x
    LARK AR2, #15
    ZAC
    MPYK #0
loop: LTA *AR0+
    MPY *AR1+
    BANZ AR2, loop
    APAC
    SACL y
    HALT
)",
                6});

  // -------------------------------------------------------------- 7
  ks.push_back({"iir_biquad_one_section",
                R"(
program iir_biquad_one_section;
input x : fix;
input a1 : fix;
input a2 : fix;
input b0 : fix;
input b1 : fix;
input b2 : fix;
var w : fix;
var w1 : fix;
var w2 : fix;
output y : fix;
begin
  w := x - a1*w1 - a2*w2;
  y := b0*w + b1*w1 + b2*w2;
  w2 := w1;
  w1 := w;
end
)",
                R"(
.sym x 1
.sym a1 1
.sym a2 1
.sym b0 1
.sym b1 1
.sym b2 1
.sym w 1
.sym w1 1
.sym w2 1
.sym y 1
    LAC x
    LT a1
    MPY w1
    SPAC        ; no combined load-T-and-subtract exists, so plain SPAC
    LT a2
    MPY w2
    SPAC
    SACL w
    LT b0
    MPY w
    LTP b1
    MPY w1
    LTA b2
    MPY w2
    APAC
    SACL y
    DMOV w1     ; w2 = w1
    LAC w
    SACL w1
    HALT
)",
                6});

  // -------------------------------------------------------------- 8
  ks.push_back({"iir_biquad_n_sections",
                R"(
program iir_biquad_n_sections;
const NS = 4;
input x : fix;
input a1[NS] : fix;
input a2[NS] : fix;
input b0[NS] : fix;
input b1[NS] : fix;
input b2[NS] : fix;
var w : fix;
var w1[NS] : fix;
var w2[NS] : fix;
var xin : fix;
output y : fix;
begin
  xin := x;
  for s := 0 to NS-1 do
    w := xin - a1[s]*w1[s] - a2[s]*w2[s];
    xin := b0[s]*w + b1[s]*w1[s] + b2[s]*w2[s];
    w2[s] := w1[s];
    w1[s] := w;
  endfor
  y := xin;
end
)",
                R"(
.sym x 1
.sym a1 4
.sym a2 4
.sym b0 4
.sym b1 4
.sym b2 4
.sym w 1
.sym w1 4
.sym w2 4
.sym xin 1
.sym y 1
    LAC x
    SACL xin
    LARK AR0, #1    ; a1
    LARK AR1, #5    ; a2
    LARK AR2, #9    ; b0
    LARK AR3, #13   ; b1
    LARK AR4, #17   ; b2
    LARK AR5, #22   ; w1
    LARK AR6, #26   ; w2
    LARK AR7, #3
loop: LAC xin
    LT *AR0+        ; a1[s]
    MPY *AR5        ; w1[s]
    SPAC
    LT *AR1+        ; a2[s]
    MPY *AR6        ; w2[s]
    SPAC
    SACL w
    LT *AR2+        ; b0[s]
    MPY w
    LTP *AR3+       ; b1[s]
    MPY *AR5        ; w1[s]
    LTA *AR4+       ; b2[s]
    MPY *AR6        ; w2[s]
    APAC
    SACL xin
    LAC *AR5        ; w1[s]
    SACL *AR6+      ; w2[s] = w1[s]
    LAC w
    SACL *AR5+      ; w1[s] = w
    BANZ AR7, loop
    LAC xin
    SACL y
    HALT
)",
                6});

  // -------------------------------------------------------------- 9
  ks.push_back({"dot_product",
                R"(
program dot_product;
input a[2] : fix;
input b[2] : fix;
output z : fix;
begin
  z := a[0]*b[0] + a[1]*b[1];
end
)",
                R"(
.sym a 2
.sym b 2
.sym z 1
    LT a
    MPY b
    LTP a+1
    MPY b+1
    APAC
    SACL z
    HALT
)",
                2});

  // -------------------------------------------------------------- 10
  ks.push_back({"convolution",
                R"(
program convolution;
const N = 16;
input x[N] : fix;
input h[N] : fix;
output y : fix;
var acc : fix;
begin
  acc := 0;
  for i := 0 to N-1 do
    acc := acc + x[i]*h[N-1-i];
  endfor
  y := acc;
end
)",
                R"(
.sym x 16
.sym h 16
.sym y 1
    LARK AR0, #0     ; x
    LARK AR1, #31    ; h + 15
    LARK AR2, #15
    MPYK #0
loop: LTA *AR0+
    MPY *AR1-
    BANZ AR2, loop
    APAC
    SACL y
    HALT
)",
                2});

  return ks;
}

}  // namespace

const std::vector<Kernel>& dspstoneKernels() {
  static const std::vector<Kernel> ks = buildKernels();
  return ks;
}

const Kernel& kernelByName(const std::string& name) {
  for (const auto& k : dspstoneKernels())
    if (k.name == name) return k;
  throw std::out_of_range("unknown kernel: " + name);
}

const std::vector<Kernel>& longKernels() {
  static const std::vector<Kernel> ks = [] {
    struct Sized {
      const char* name;
      const char* from;  // the size constant in the kernel's DFL
      const char* to;    // ... raised
    };
    const Sized sizes[] = {
        {"n_real_updates", "const N = 16;", "const N = 480;"},
        {"n_complex_updates", "const N = 16;", "const N = 240;"},
        {"fir", "const N = 16;", "const N = 960;"},
        {"convolution", "const N = 16;", "const N = 960;"},
        {"iir_biquad_n_sections", "const NS = 4;", "const NS = 256;"},
    };
    std::vector<Kernel> out;
    for (const Sized& sz : sizes) {
      Kernel k = kernelByName(sz.name);
      const std::string from = sz.from;
      const size_t at = k.dfl.find(from);
      if (at == std::string::npos)
        throw std::logic_error(std::string(sz.name) + " lacks " + from);
      k.dfl.replace(at, from.size(), sz.to);
      k.refAsm.clear();
      out.push_back(std::move(k));
    }
    return out;
  }();
  return ks;
}

}  // namespace record
