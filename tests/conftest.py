import json

import pytest

import helpers


@pytest.fixture
def toy_graph():
    return helpers.toy_graph()


@pytest.fixture
def toy_files(tmp_path):
    """The toy fixture written out in the on-disk format."""
    schema = {
        "node_types": [
            {"name": "paper", "identifier_tag": "PA"},
            {"name": "author", "identifier_tag": "AU"},
            {"name": "venue", "identifier_tag": "VN"},
        ],
        "edge_types": [
            {"name": "writes", "source": "author", "target": "paper"},
            {"name": "published_in", "source": "paper", "target": "venue"},
        ],
    }
    schema_path = tmp_path / "schema.json"
    schema_path.write_text(json.dumps(schema))
    nodes_path = tmp_path / "nodes.tsv"
    nodes_path.write_text(
        "p1\tpaper\tspectral methods for sparse graphs\n"
        "p2\tpaper\tadaptive kernels in noisy settings\n"
        "a1\tauthor\tAlva Mercer (graph algorithms)\n"
        "a2\tauthor\tBren Holt (numerical methods)\n"
        "v1\tvenue\tjournal of discrete structures\n"
    )
    edges_path = tmp_path / "edges.tsv"
    edges_path.write_text(
        "a1\tp1\twrites\n"
        "a2\tp1\twrites\n"
        "p2\tv1\tpublished_in\n"
    )
    return str(nodes_path), str(edges_path), str(schema_path)


@pytest.fixture
def keep_alive():
    """A keep-alive HTTP/1.1 completion endpoint on loopback (helpers.KeepAliveEndpoint)."""
    with helpers.serving(helpers.KeepAliveEndpoint()) as server:
        yield server
