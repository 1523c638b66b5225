#!/usr/bin/env bash
# mutants.sh SRC OUT — plants three small model changes, each in a fresh
# copy of the checkout SRC under OUT, runs tier-1 (go test ./...) in the
# copy and prints every test that fails, one line each, then the entries
# TestModelManifest names. A mutant no test catches prints "tier-1 PASS
# (missed)". Run it on the parent and on the change; needs jq.
#
#   track-serial-cycle  TRACK's Serial version pays one more cycle per
#                       scalar serial chunk (moves Tables 3-6 and Figure 3).
#   panel-sweep-cycle   every iteration of the prefetch block-size
#                       ablation's panel sweep pays one more scalar cycle
#                       (a kernel-level change: moves only prefblock).
#   retry-backoff-1     a NACKed or lost prefetch read waits one more cycle
#                       before its reissue (a fault path: only degraded).
set -euo pipefail
SRC=$(cd "$1" && pwd); mkdir -p "$2"; OUT=$(cd "$2" && pwd)

plant() { # name file perl-substitution
  local dir="$OUT/$1"
  rm -rf "$dir"; mkdir -p "$dir"
  tar -c -C "$SRC" --exclude=./.git --exclude=./artifacts . | tar -x -C "$dir"
  perl -0pi -e "$3" "$dir/$2"
  if cmp -s "$SRC/$2" "$dir/$2"; then
    echo "$1: substitution did not apply" >&2; exit 1
  fi
  local status=0
  (cd "$dir" && go test -count=1 -json ./... > "$dir/tier1.json" 2>&1) || status=$?
  local failed
  failed=$(jq -Rr 'fromjson? | select(.Action == "fail" and .Test != null) | "\(.Package) \(.Test)"' "$dir/tier1.json" | sort)
  if [ -n "$failed" ]; then
    echo "$failed" | sed "s/^/$1 FAIL /"
  elif [ "$status" -ne 0 ]; then
    echo "$1 go test exited $status with no failing test (see $dir/tier1.json)"
  else
    echo "$1 tier-1 PASS (missed)"
  fi
  jq -Rr 'fromjson? | select(.Test == "TestModelManifest" and .Action == "output") | .Output' "$dir/tier1.json" |
    grep -o 'the model moved: [^.]*' | sed "s/^/$1 /" || true
}

plant track-serial-cycle internal/perfect/build.go \
  's/(\tif !vector \{\n)(\t\treturn cfrt\.Serial\{Body: func\(q \[\]ce\.Instr\) \[\]ce\.Instr \{\n\t\t\treturn append\(q, ce\.Instr\{Op: ce\.OpScalar, Cycles: flops \* scalarCPF)/$1\t\textra := int64(0)\n\t\tif b.p.Name == "TRACK" && b.spec.Variant == Serial {\n\t\t\textra = 1\n\t\t}\n$2 + extra/'
plant panel-sweep-cycle internal/kernels/loops.go \
  's/(\t\t\}\n)(\t\treturn q\n\t\}\n\trt := cfrt\.New\(m, cfrt\.Config\{UseCedarSync: true\},\n\t\tcfrt\.XDoall\{N: n \/ 8)/$1\t\tq = append(q, ce.Instr{Op: ce.OpScalar, Cycles: 1})\n$2/'
plant retry-backoff-1 internal/prefetch/pfu.go \
  's/backoff := int64\(retryBase\) << \(s\.tries - 1\)/backoff := int64(retryBase)<<(s.tries-1) + 1/'
