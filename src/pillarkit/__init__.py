"""pillarkit: build pillars (two same-length cycles joined by same-length
rungs) in sparse graphs via sublinear expansion machinery, with
independently checkable certificates at every stage."""

from .config import RunConfig, ResolvedConfig, load_config, save_config
from .errors import (GraphParseError, InternalError, LengthNotRealizedError,
                     NoPathError, PillarkitError, PreconditionError, StageError)
from .expander import ExpanderParams, ExpansionReport, check_expansion, epsilon
from .graph import (Cycle, Graph, Path, VertexSet, ball, induced_degree,
                    induced_subgraph, largest_component, load_graph, parity,
                    save_graph)
from .generators import (cycle_graph, hypercube, path_graph, prism,
                         random_bipartite, random_regular, subdivided_prism,
                         subdivided_prism_rungs)
from .kraken import Kraken, KrakenSearchState, find_kraken, robust_kraken, verify_kraken
from .pillar import (Adjuster, Detour, Pillar, connect_fixed_length,
                     find_pillar, link_krakens, pillar_from_q3, verify_pillar)
from .primitives import (Expansion, Q3Certificate, connect_short, find_large_ball,
                         find_q3_bipartite, find_q3_bruteforce, find_q3_sampled,
                         trim_expansion)
from .validity import ValidityReport

__version__ = "0.1.0"
