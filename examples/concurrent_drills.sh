#!/bin/sh
# Run N crash-recovery drills of distributed_federation at once, each with
# its own checkpoint directory, and fail when any drill exits non-zero.
# Concurrency is the point: parallel drills contend for the CPU, which is
# what surfaces timing-dependent interleavings in the root's churn and
# re-admission paths that a lone drill rarely hits.
#
#   sh concurrent_drills.sh BINARY WORKDIR [N]   # N defaults to 4
set -u
bin=$1
dir=$2
n=${3:-4}
rm -rf "$dir"
mkdir -p "$dir"
pids=""
i=1
while [ "$i" -le "$n" ]; do
  "$bin" --rounds 6 --workers 3 --kill-worker --checkpoint-dir "$dir/drill$i" \
    > "$dir/drill$i.log" 2>&1 &
  pids="$pids $!"
  i=$((i + 1))
done
failed=0
i=1
for pid in $pids; do
  if wait "$pid"; then
    :
  else
    status=$?
    echo "drill $i exited $status; its output:"
    cat "$dir/drill$i.log"
    failed=1
  fi
  i=$((i + 1))
done
[ "$failed" -eq 0 ] && echo "$n concurrent drills passed"
exit "$failed"
