(* MultiCompiler diversity model.

   The MultiCompiler introduces random layout changes at compile time:
   behaviourally identical binaries whose memory layouts differ enough
   that a memory-corruption exploit crafted against one variant fails
   against any other. The model captures exactly that property: an
   exploit records the build id it was crafted against and only works on
   a variant with the same build id. Compiling without diversification
   yields the shared "monoculture" build — one exploit fits all. *)

type t = { build_id : string }

let monoculture = { build_id = "monoculture-build" }

let compile ?(diversify = true) rng =
  if not diversify then monoculture
  else
    let seed = Sim.Rng.int64 rng in
    { build_id = Crypto.Sha256.hex_of_string (Printf.sprintf "layout:%Ld" seed) }

let equal a b = String.equal a.build_id b.build_id

module Exploit = struct
  type exploit = { target_build : string; exploit_name : string }

  (* Crafting requires knowledge of a concrete variant (e.g. from a
     captured binary) and, in the real system, substantial effort. *)
  let craft ~name variant = { target_build = variant.build_id; exploit_name = name }

  let name e = e.exploit_name

  let works_against e variant = String.equal e.target_build variant.build_id
end
