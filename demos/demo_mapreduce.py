"""Chunked aggregation with fault-tolerant task re-execution.

Runs count/mean/max in one pass over the bundled server-records sample
at several chunk sizes, then repeats the job while injecting task
failures to show that retried maps re-read their chunk and the answer
never changes.
"""
from dwkit import chunkstore
from dwkit.fixtures import server_records_path
from dwkit.mapreduce import fold_op, make_ops_mapper, mapreduce, reduce_op

# one pass answers all three ops: each chunk emits one partial per op,
# folded into the op's running partial as the chunk's map task returns
OPS = [("count", "count", None), ("mean:Delay", "mean", "Delay"),
       ("max:AET", "max", "ActualElapsedTime")]

for chunk_size in (1, 3, 8):
    ds = chunkstore.open_datastore(server_records_path(),
                                   chunk_size=chunk_size)
    res = dict(mapreduce(ds, make_ops_mapper(OPS), reduce_op,
                         fold=fold_op).pairs)
    print("chunk_size=%d  rows=%d  mean(Delay)=%.3f  max(AET)=%d"
          % (chunk_size, res["count"], res["mean:Delay"], res["max:AET"]))

# now make the first attempt of every map task blow up
print("\nwith every map task failing once:")
ds = chunkstore.open_datastore(server_records_path(), chunk_size=3)


def injector(kind, task_id, attempt):
    return kind == "map" and attempt == 1


result = mapreduce(ds, make_ops_mapper(OPS), reduce_op, fold=fold_op,
                   fail_injector=injector)
print("mean(Delay) = %.3f (unchanged)" % dict(result.pairs)["mean:Delay"])

failures = [e for e in result.log if e["kind"] == "map-failed"]
retries = [e for e in result.log if e["kind"] == "map-start"
           and e["attempt"] > 1]
print("scheduler log: %d failures, %d retries, barrier at seq %d"
      % (len(failures), len(retries),
         next(e["seq"] for e in result.log if e["kind"] == "barrier")))
